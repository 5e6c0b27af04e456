//! Regenerates Table 3: time delay in receiving OSN notifications.

use sensocial_bench::{experiments, header};

fn main() {
    header("Table 3: time delay in receiving OSN notifications (50 actions)");
    let result = experiments::table3(50);
    println!(
        "{:<18} {:>14} {:>18}",
        "Notification", "Average [s]", "Standard deviation"
    );
    println!(
        "{:<18} {:>14.3} {:>18.3}",
        "OSN to Server", result.osn_to_server.mean, result.osn_to_server.std_dev
    );
    println!(
        "{:<18} {:>14.3} {:>18.3}",
        "OSN to Mobile", result.osn_to_mobile.mean, result.osn_to_mobile.std_dev
    );
    println!();
    println!(
        "Middleware processing + push delivery adds {:.1} s on top of the OSN's own latency.",
        result.osn_to_mobile.mean - result.osn_to_server.mean
    );
    println!("Paper: 46.466 s (σ 2.768) to server; 55.388 s (σ 2.495) to mobile; Δ ≈ 9 s.");
}
