//! Regenerates Table 5: programming effort with and without SenSocial.

use sensocial_bench::{experiments, header};

fn main() {
    header("Table 5: lines of code, with vs without SenSocial (shared substrate excluded)");
    println!("{:<42} {:>6} {:>8}", "Application", "Files", "LOC");
    let rows = experiments::table5();
    for row in &rows {
        println!(
            "{:<42} {:>6} {:>8}",
            row.application, row.files, row.code_lines
        );
    }
    println!();
    println!(
        "Sensor Map reduction: {:.1}x (paper: 3423/316 = 10.8x over mobile+server)",
        rows[1].code_lines as f64 / rows[0].code_lines as f64
    );
    println!(
        "ConWeb reduction: {:.1}x (paper: 3223/130 = 24.8x over mobile+server)",
        rows[3].code_lines as f64 / rows[2].code_lines as f64
    );
}
