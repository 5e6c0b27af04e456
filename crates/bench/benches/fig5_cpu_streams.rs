//! Regenerates Figure 5: CPU load vs number of sensor data streams.

use sensocial_bench::{experiments, header};

fn main() {
    header("Figure 5: CPU consumed [%] vs number of streams (10 min windows)");
    println!("{:>8} {:>14} {:>14}", "Streams", "Local [%]", "Server [%]");
    let points = experiments::fig5(&[0, 5, 10, 20, 30, 40, 50]);
    for p in &points {
        println!(
            "{:>8} {:>14.2} {:>14.2}",
            p.streams, p.local_pct, p.server_pct
        );
    }
    println!();
    println!("Paper shape: server-transmitted streams grow steeply; local streams stay low;");
    println!("CPU load below 10% with five streams (one per supported modality).");

    header("Companion (§5.5): heap occupancy vs number of streams");
    println!("{:>8} {:>14}", "Streams", "Heap [MB]");
    for (n, mb) in experiments::memory_vs_streams(&[0, 10, 25, 50]) {
        println!("{n:>8} {mb:>14.3}");
    }
    println!("Paper: \"the number of streams does not affect the memory consumption\"");
    println!("(per-stream footprint is ~1% of the app heap — below DDMS resolution).");
}
