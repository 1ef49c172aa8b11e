//! Ablation: GB-S with vs without whole-filter collocation.
//!
//! §5.1: "Removing the whole-filter collocation from SparTen-GB-S results in
//! worse performance in most other benchmarks (not shown)" — the exceptions
//! being the GoogLeNet 5x5_reduce layers whose 16/48 filter counts interact
//! badly with pairing. This ablation shows both sides of that claim.

use sparten::core::balance::{BalanceMode, LayerBalance};
use sparten::nn::all_networks;
use sparten::sim::breakdown::geometric_mean;
use sparten::sim::sparten::{simulate_sparten, Sparsity};
use sparten::sim::{simulate_layer, MaskModel, Scheme, SimConfig};
use crate::{network_config, print_table, SEED};

pub fn run() {
    crate::outln!("== Ablation: GB-S collocation (speedup over Dense-equivalent GB-S run) ==");
    crate::outln!(
        "(ratio = GB-S cycles without collocation / with collocation; >1 means collocation wins)\n"
    );
    let mut rows = Vec::new();
    let mut all_ratios = Vec::new();
    for net in all_networks() {
        let cfg: SimConfig = network_config(&net);
        let mut ratios = Vec::new();
        for spec in &net.layers {
            let w = spec.workload(SEED);
            let model = MaskModel::new(&w, cfg.accel.cluster.chunk_size);
            let with = simulate_layer(&w, &model, &cfg, Scheme::SpartenGbS);
            let cluster = &cfg.accel.cluster;
            let (units, chunk) = (cluster.compute_units, cluster.chunk_size);
            let balance = LayerBalance::new(&w.filters, units, chunk, BalanceMode::GbSNoColloc);
            let without =
                simulate_sparten(&w, &model, &cfg, Sparsity::TwoSided, balance, None, None)
                    .expect("fault-free simulation cannot fail");
            let ratio = without.cycles() as f64 / with.cycles() as f64;
            ratios.push(ratio);
            rows.push(vec![
                net.name.to_string(),
                spec.name.to_string(),
                format!("{:>10}", with.cycles()),
                format!("{:>10}", without.cycles()),
                format!("{ratio:.2}"),
            ]);
        }
        all_ratios.extend_from_slice(&ratios);
        crate::outln!(
            "{}: collocation helps on {}/{} layers (geomean ratio {:.2})",
            net.name,
            ratios.iter().filter(|&&r| r > 1.0).count(),
            ratios.len(),
            geometric_mean(&ratios)
        );
    }
    crate::outln!(
        "overall geomean ratio: {:.2} (collocation wins on average)\n",
        geometric_mean(&all_ratios)
    );
    print_table(
        &[
            "Network",
            "Layer",
            "GB-S cycles",
            "no-colloc cycles",
            "ratio",
        ],
        &rows,
    );
}
