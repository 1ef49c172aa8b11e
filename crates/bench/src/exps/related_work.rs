//! Empirical backing for Table 1 and §6: SparTen against the semi-sparse
//! alternatives built in this repo — a Cambricon-S-like structured-sparsity
//! design and a Bit-Pragmatic/Laconic-like bit-serial design — on
//! representative layers of each network.

use sparten::nn::all_networks;
use sparten::sim::{
    simulate_bitserial, simulate_cambricon, simulate_layer, MaskModel, Scheme, SimConfig,
};
use crate::{network_config, print_table, SEED};

pub fn run() {
    crate::outln!("== Related-work comparison (one representative layer per network) ==\n");
    let picks = [
        ("AlexNet", "Layer2"),
        ("GoogLeNet", "Inc3a_3x3"),
        ("VGGNet", "Layer8"),
    ];
    let mut rows = Vec::new();
    for net in all_networks() {
        let Some((_, layer_name)) = picks.iter().find(|(n, _)| *n == net.name) else {
            continue;
        };
        let spec = net.layer(layer_name).expect("layer exists");
        let cfg: SimConfig = network_config(&net);
        let w = spec.workload(SEED);
        let model = MaskModel::new(&w, cfg.accel.cluster.chunk_size);

        let dense = simulate_layer(&w, &model, &cfg, Scheme::Dense);
        let sparten = simulate_layer(&w, &model, &cfg, Scheme::SpartenGbH);
        let cam = simulate_cambricon(&w, &cfg, None);
        let bits = simulate_bitserial(&w, &cfg);

        for (label, r, accuracy) in [
            ("Dense", &dense, "yes".to_string()),
            ("SparTen", &sparten, "yes".to_string()),
            (
                "Cambricon-S-like",
                &cam.sim,
                format!(
                    "no ({:.0}% keepers clamped)",
                    cam.prune_report.collateral_fraction() * 100.0
                ),
            ),
            ("Bit-serial", &bits, "yes".to_string()),
        ] {
            rows.push(vec![
                format!("{} {}", net.name, layer_name),
                label.to_string(),
                r.cycles().to_string(),
                format!("{:.2}x", r.speedup_over(&dense)),
                format!("{:.0}", r.traffic.zero_value_bytes / 1024.0),
                format!("{:.0}", r.traffic.total_bytes() / 1024.0),
                accuracy,
            ]);
        }
    }
    print_table(
        &[
            "Layer",
            "Scheme",
            "cycles",
            "speedup",
            "zero KB moved",
            "total KB",
            "accuracy kept",
        ],
        &rows,
    );
    crate::outln!("\nNotes: bit-serial cycles are digit-cycles at one digit pair/lane/cycle;");
    crate::outln!("Cambricon-S-like is density-matched via group-shared coarse pruning;");
    crate::outln!("its clamped-keeper fraction proxies the accuracy cost of structure (§6).");
}
