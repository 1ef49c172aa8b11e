//! Stride study: SparTen vs SCNN on non-unit-stride convolutions.
//!
//! §2.1.1: the Cartesian product "is not applicable to non-unit-stride
//! convolutions" — mechanically, it computes the full unit-stride product
//! set and discards the (1 − 1/s²) of it that falls between outputs. This
//! study runs ResNet-style stride-2 layers and AlexNet's stride-4 Layer0,
//! reporting each scheme's wasted-compute fraction and speedup, plus the
//! functional Cartesian engine's exact waste accounting.

use sparten::nn::networks::resnet_samples;
use sparten::nn::{alexnet, LayerSpec};
use sparten::sim::{scnn_cartesian_conv, simulate_layer, MaskModel, Scheme, SimConfig};
use crate::{print_table, SEED};

pub fn run() {
    crate::outln!("== Stride study: SparTen vs SCNN beyond unit stride ==\n");
    let alex = alexnet();
    let resnet = resnet_samples();
    let mut layers: Vec<(&str, &LayerSpec)> = vec![("AlexNet", alex.layer("Layer0").unwrap())];
    for l in &resnet.layers {
        layers.push(("ResNet", l));
    }
    // A unit-stride control.
    layers.push(("AlexNet", alex.layer("Layer2").unwrap()));

    let cfg = SimConfig::large();
    let mut rows = Vec::new();
    for (net, spec) in layers {
        let w = spec.workload(SEED);
        let model = MaskModel::new(&w, cfg.accel.cluster.chunk_size);
        let dense = simulate_layer(&w, &model, &cfg, Scheme::Dense);
        let sparten = simulate_layer(&w, &model, &cfg, Scheme::SpartenGbH);
        let scnn = simulate_layer(&w, &model, &cfg, Scheme::Scnn);
        let scnn_waste =
            scnn.breakdown.zero as f64 / (scnn.breakdown.zero + scnn.breakdown.nonzero) as f64;
        rows.push(vec![
            format!("{net} {}", spec.name),
            spec.shape.stride.to_string(),
            format!("{:.2}x", sparten.speedup_over(&dense)),
            format!("{:.2}x", scnn.speedup_over(&dense)),
            format!("{:.0}%", scnn_waste * 100.0),
            "0%".to_string(), // SparTen never computes a zero pair
        ]);
    }
    print_table(
        &[
            "Layer",
            "stride",
            "SparTen speedup",
            "SCNN speedup",
            "SCNN wasted compute",
            "SparTen wasted",
        ],
        &rows,
    );

    // Exact functional check on a scaled-down stride-2 layer.
    let shape = sparten::nn::ConvShape::new(32, 14, 14, 3, 16, 2, 1);
    let w = sparten::nn::generate::workload(&shape, 0.35, 0.35, SEED);
    let (_, stats) = scnn_cartesian_conv(&w, None);
    crate::outln!(
        "\nfunctional Cartesian product at stride 2: {} products, {:.0}% discarded",
        stats.products,
        stats.waste_fraction() * 100.0
    );
    crate::outln!("(the result is still numerically correct — only the work is wasted)");
}
