//! Regenerates Table 1: SenSocial source code details.

use sensocial_bench::{experiments, header};

fn main() {
    header("Table 1: SenSocial source code details (CLOC-style counts)");
    println!("{:<22} {:>8} {:>12}", "Component", "Files", "Code lines");
    for row in experiments::table1() {
        println!(
            "{:<22} {:>8} {:>12}",
            row.component, row.files, row.code_lines
        );
    }
    println!();
    println!("Paper: mobile 77 files / 2635 LOC; server 46 Java + 2 PHP / 1185 LOC.");
    println!("Shape to check: the mobile middleware is the larger component.");
}
