//! Ablation report: push vs poll, filter placement, classification
//! placement.

use sensocial_bench::{ablations, experiments, header};

fn main() {
    header("Ablation A: trigger delivery — MQTT push vs HTTP-style polling (1 h, 6 actions)");
    println!(
        "{:<24} {:>16} {:>16}",
        "Variant", "Device [uAH]", "Mean delay [s]"
    );
    for v in ablations::push_vs_poll(6, &[30, 60, 300, 600]) {
        println!(
            "{:<24} {:>16.1} {:>16.1}",
            v.label, v.device_uah, v.mean_delay_s
        );
    }
    println!("Paper claim: push avoids continuous polling and lowers battery consumption.");

    header("Ablation B: filter placement — on-mobile vs on-server (2 h, walking 25% of time)");
    println!(
        "{:<20} {:>16} {:>12} {:>10} {:>16}",
        "Variant", "GPS sample [uAH]", "Tx [uAH]", "Uplinks", "App deliveries"
    );
    for v in ablations::filter_placement() {
        println!(
            "{:<20} {:>16.1} {:>12.1} {:>10} {:>16}",
            v.label, v.gps_sampling_uah, v.device_tx_uah, v.uplink_events, v.delivered_events
        );
    }
    println!("Paper claims: on-mobile filtering cuts transmission energy and data-plan usage,");
    println!("and gates energy-costly sensors on cheaper ones (GPS only when accel says walking).");

    header("Ablation C: classification placement — raw upload vs classify-on-device (1 h)");
    println!(
        "{:<24} {:>16} {:>14}",
        "Variant", "Device [uAH]", "Bytes sent"
    );
    for v in ablations::classification_placement() {
        println!(
            "{:<24} {:>16.1} {:>14}",
            v.label, v.device_uah, v.bytes_sent
        );
    }
    println!("Paper claim: classification halves the accelerometer stream's total energy.");

    header("Extension: stock activity-classifier accuracy vs ground truth (200/class)");
    println!("{:<12} {:>10} {:>12}", "Truth", "Samples", "Accuracy");
    for row in experiments::activity_classifier_accuracy(200) {
        println!(
            "{:<12} {:>10} {:>11.1}%",
            row.truth,
            row.samples,
            row.accuracy * 100.0
        );
    }
    println!("(The paper ships these classifiers as unoptimized proofs of concept.)");
}
