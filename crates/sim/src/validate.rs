//! Self-validation harness: one call that cross-checks every model.
//!
//! For a given layer configuration this runs (1) the dense reference
//! convolution, (2) the functional SparTen engine in every balance mode,
//! (3) the functional SCNN Cartesian engine, and (4) all cycle-level
//! simulators, and checks the invariants that tie them together:
//! numerical equality of the functional paths, work-count agreement
//! between the engine trace and the simulators, and the breakdown
//! accounting identity. Used by integration tests and the `validate`
//! experiment as a one-shot health check.

use sparten_core::balance::BalanceMode;
use sparten_core::{AcceleratorConfig, ClusterConfig, SparTenEngine};
use sparten_nn::generate::{workload, Workload};
use sparten_nn::{conv2d, ConvShape};

use crate::config::SimConfig;
use crate::runner::{simulate_layer, Scheme};
use crate::scnn_engine::scnn_cartesian_conv;
use crate::workmodel::MaskModel;

/// The outcome of one validation run.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationReport {
    /// The layer shape validated.
    pub shape: ConvShape,
    /// Maximum |error| of the SparTen engine vs the dense reference,
    /// worst over all balance modes.
    pub engine_max_err: f32,
    /// Maximum |error| of the SCNN Cartesian engine vs the reference.
    pub scnn_max_err: f32,
    /// Whether the simulator's useful-MAC count equals the engine trace.
    pub mac_counts_agree: bool,
    /// Whether every scheme satisfied the breakdown accounting identity.
    pub accounting_holds: bool,
    /// Whether the scheme ordering Dense ≥ One-sided ≥ SparTen held on
    /// cycles (expected at sparse densities).
    pub ordering_holds: bool,
}

impl ValidationReport {
    /// Overall pass/fail at the given numerical tolerance.
    pub fn passed(&self, tolerance: f32) -> bool {
        self.engine_max_err < tolerance
            && self.scnn_max_err < tolerance
            && self.mac_counts_agree
            && self.accounting_holds
            && self.ordering_holds
    }
}

fn max_err(a: &sparten_tensor::Tensor3, b: &sparten_tensor::Tensor3) -> f32 {
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f32::max)
}

/// Validates one layer configuration end to end.
pub fn validate_layer(
    shape: ConvShape,
    input_density: f64,
    filter_density: f64,
    seed: u64,
) -> ValidationReport {
    let w: Workload = workload(&shape, input_density, filter_density, seed);
    let reference = conv2d(&w.input, &w.filters, &shape);

    // Functional engine, all modes, against the reference.
    let accel = AcceleratorConfig {
        cluster: ClusterConfig {
            compute_units: 4,
            chunk_size: 64,
            bisection_limit: 4,
        },
        num_clusters: 2,
    };
    let engine = SparTenEngine::new(accel);
    let mut engine_max_err = 0.0f32;
    let mut engine_macs = None;
    for mode in [
        BalanceMode::None,
        BalanceMode::GbS,
        BalanceMode::GbH,
        BalanceMode::GbSNoColloc,
    ] {
        let run = engine.run_layer(&w, mode, false);
        engine_max_err = engine_max_err.max(max_err(&run.logical_output(), &reference));
        let macs = run.trace.total_macs();
        assert!(
            engine_macs.replace(macs).is_none_or(|prev| prev == macs),
            "balance modes must not change MAC counts"
        );
    }

    // SCNN Cartesian engine against the reference.
    let (scnn_out, _) = scnn_cartesian_conv(&w, None);
    let scnn_max_err = max_err(&scnn_out, &reference);

    // Simulators: accounting + work agreement + ordering.
    let mut cfg = SimConfig::small();
    cfg.accel = accel;
    let model = MaskModel::new(&w, cfg.accel.cluster.chunk_size);
    let accounting_holds = Scheme::all()
        .iter()
        .all(|&s| simulate_layer(&w, &model, &cfg, s).accounting_holds());
    let sim = simulate_layer(&w, &model, &cfg, Scheme::SpartenNoGb);
    let mac_counts_agree = Some(sim.breakdown.nonzero) == engine_macs;
    let dense = simulate_layer(&w, &model, &cfg, Scheme::Dense).cycles();
    let one = simulate_layer(&w, &model, &cfg, Scheme::OneSided).cycles();
    let sparten = simulate_layer(&w, &model, &cfg, Scheme::SpartenGbH).cycles();
    // The Dense ≥ One-sided ≥ SparTen ordering is only expected on sparse
    // inputs; on dense shallow-channel layers (the VGG-Layer0 pathology)
    // the sparse datapaths legitimately pay chunk overheads for nothing.
    let ordering_expected = input_density < 0.9;
    let ordering_holds = !ordering_expected || (dense >= one && one >= sparten);

    ValidationReport {
        shape,
        engine_max_err,
        scnn_max_err,
        mac_counts_agree,
        accounting_holds,
        ordering_holds,
    }
}

/// A standard battery of validation shapes covering strides, kernels,
/// channel depths, and the shallow-channel edge case.
pub fn standard_battery() -> Vec<(ConvShape, f64, f64)> {
    vec![
        (ConvShape::new(32, 8, 8, 3, 12, 1, 1), 0.4, 0.35),
        (ConvShape::new(70, 6, 6, 3, 9, 1, 1), 0.5, 0.4),
        (ConvShape::new(16, 9, 9, 3, 8, 2, 1), 0.4, 0.4),
        (ConvShape::new(8, 13, 13, 5, 6, 4, 2), 0.5, 0.5),
        (ConvShape::new(96, 5, 5, 1, 20, 1, 0), 0.3, 0.35),
        (ConvShape::new(3, 10, 10, 3, 8, 1, 1), 1.0, 0.6),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_battery_passes() {
        for (i, (shape, di, df)) in standard_battery().into_iter().enumerate() {
            let report = validate_layer(shape, di, df, 1000 + i as u64);
            assert!(report.passed(1e-2), "battery case {i} failed: {report:?}");
        }
    }

    #[test]
    fn report_fields_are_meaningful() {
        let (shape, di, df) = standard_battery()[0];
        let r = validate_layer(shape, di, df, 1);
        assert!(r.engine_max_err < 1e-2);
        assert!(r.mac_counts_agree);
        assert!(r.accounting_holds);
    }
}
