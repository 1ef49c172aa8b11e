//! Ablation: the SparseMap chunk size (the paper fixes n = 128).
//!
//! Smaller chunks mean finer-grained barriers (less imbalance exposure per
//! barrier but more per-chunk overheads and more mask storage per value);
//! larger chunks amortize overheads but grow the prefix-sum/priority-encoder
//! hardware superlinearly (Table 4 scaling). This sweep quantifies both
//! sides on a representative layer.

use sparten::core::ClusterConfig;
use sparten::energy::cluster_asic_estimate;
use sparten::nn::alexnet;
use sparten::sim::{simulate_layer, MaskModel, Scheme, SimConfig};
use crate::{print_table, SEED};

pub fn run() {
    crate::outln!("== Ablation: chunk size (AlexNet Layer2, SparTen GB-H) ==\n");
    let net = alexnet();
    let spec = net.layer("Layer2").expect("Layer2 exists");
    let w = spec.workload(SEED);

    let mut rows = Vec::new();
    for chunk in [64usize, 128, 256, 512] {
        let mut cfg = SimConfig::large();
        cfg.accel.cluster.chunk_size = chunk;
        let model = MaskModel::new(&w, chunk);
        let r = simulate_layer(&w, &model, &cfg, Scheme::SpartenGbH);
        let cluster = ClusterConfig {
            compute_units: 32,
            chunk_size: chunk,
            bisection_limit: 4,
        };
        let asic = cluster_asic_estimate(&cluster);
        rows.push(vec![
            chunk.to_string(),
            r.cycles().to_string(),
            format!("{:.3}", r.traffic.metadata_bytes / 1024.0),
            format!("{:.3}", asic.total_area_mm2()),
            format!("{:.1}", asic.total_power_mw()),
        ]);
    }
    print_table(
        &[
            "chunk",
            "cycles",
            "mask KB moved",
            "cluster area mm^2",
            "cluster power mW",
        ],
        &rows,
    );
    crate::outln!("\nThe paper's 128 balances per-chunk overhead against join-circuit area.");
}
