//! Regenerates Table 2: memory footprint of the stub SenSocial app vs GAR.

use sensocial_bench::{experiments, header};

fn main() {
    header("Table 2: memory footprint (DDMS-style)");
    println!(
        "{:<12} {:>18} {:>10}",
        "Application", "Heap allocated (MB)", "Objects"
    );
    let rows = experiments::table2();
    for row in &rows {
        println!(
            "{:<12} {:>18.3} {:>10}",
            row.application, row.heap_mb, row.objects
        );
    }
    println!();
    println!(
        "Extra memory for the full middleware vs the GAR stub: {:.3} MB ({} objects)",
        rows[0].heap_mb - rows[1].heap_mb,
        rows[0].objects - rows[1].objects
    );
    println!("Paper: SenSocial 12.342 MB / 51419 objects; GAR 11.126 MB / 46210; Δ ≈ 1.216 MB.");
}
