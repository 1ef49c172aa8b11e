//! Experiment drivers shared by the figure and study modules.

use sparten::nn::{LayerSpec, Network};
use sparten::sim::{simulate, Hooks, MaskModel, Scheme, SimConfig, SimResult};
use sparten::telemetry::Telemetry;

/// The seed every harness run uses, for reproducible tables.
pub const SEED: u64 = 2019;

/// One layer's results across a set of schemes.
#[derive(Debug, Clone)]
pub struct LayerResult {
    /// The layer's Table 3 name.
    pub layer: &'static str,
    /// Results in the same order as the schemes passed to [`run_network`].
    pub results: Vec<SimResult>,
}

impl LayerResult {
    /// Speedups over the first scheme (conventionally Dense).
    pub fn speedups(&self) -> Vec<f64> {
        let base = &self.results[0];
        self.results.iter().map(|r| r.speedup_over(base)).collect()
    }
}

/// The simulation configuration the paper uses for each network: the large
/// setup for AlexNet and VGGNet, the small one for GoogLeNet (§4).
pub fn network_config(network: &Network) -> SimConfig {
    if network.name == "GoogLeNet" {
        SimConfig::small()
    } else {
        SimConfig::large()
    }
}

/// Runs every layer of a network through the given schemes, reusing one
/// mask model per layer.
pub fn run_network(network: &Network, schemes: &[Scheme], config: &SimConfig) -> Vec<LayerResult> {
    network
        .layers
        .iter()
        .map(|spec| run_layer(spec, schemes, config, None))
        .collect()
}

/// Runs one Table 3 layer through the given schemes. This is the unit of
/// work the harness parallelizes: independent layers of one figure run on
/// different workers and are recombined in layer order.
///
/// With a `session`, every scheme's simulation records work/stall counters
/// and timeline spans into it (Perfetto tracks prefixed `"<layer>:"`), with
/// the stall counters reconciled *exactly* against each returned breakdown
/// before they are merged in.
///
/// # Panics
///
/// Panics if any scheme's counters fail to reconcile with its breakdown —
/// that is a simulator-instrumentation bug, never a data condition, and
/// the harness surfaces it as a failed job.
pub fn run_layer(
    spec: &LayerSpec,
    schemes: &[Scheme],
    config: &SimConfig,
    session: Option<&Telemetry>,
) -> LayerResult {
    let workload = spec.workload(SEED);
    let model = MaskModel::new(&workload, config.accel.cluster.chunk_size);
    let prefix = format!("{}:", spec.name);
    let hooks = Hooks {
        telemetry: session.map(|s| (s, prefix.as_str())),
        fault: None,
    };
    LayerResult {
        layer: spec.name,
        results: schemes
            .iter()
            .map(|&s| {
                simulate(&workload, &model, config, s, &hooks)
                    .unwrap_or_else(|e| panic!("{}: {e}", spec.name))
            })
            .collect(),
    }
}

/// Geometric mean over layers of per-layer values, optionally excluding
/// named layers (the paper excludes AlexNet/VGGNet Layer0 from some means).
pub fn geomean_excluding(
    layers: &[LayerResult],
    per_layer: impl Fn(&LayerResult) -> f64,
    exclude: &[&str],
) -> f64 {
    let vals: Vec<f64> = layers
        .iter()
        .filter(|l| !exclude.contains(&l.layer))
        .map(per_layer)
        .collect();
    sparten::sim::breakdown::geometric_mean(&vals)
}

/// Writes per-layer results as JSON rows next to the printed table, under
/// `results/<name>.json`, so plots can be regenerated without re-running.
/// Under the harness the rows are captured as an artifact instead of
/// written directly, so cached and live runs produce identical files.
pub fn dump_json(name: &str, layers: &[LayerResult], schemes: &[Scheme]) {
    use crate::json::Json;
    let rows = Json::Arr(
        layers
            .iter()
            .map(|l| {
                let per_scheme = Json::Arr(
                    schemes
                        .iter()
                        .zip(&l.results)
                        .map(|(s, r)| {
                            Json::obj([
                                ("scheme", Json::str(s.label())),
                                ("cycles", Json::UInt(r.cycles())),
                                ("compute_cycles", Json::UInt(r.compute_cycles)),
                                ("memory_cycles", Json::UInt(r.memory_cycles)),
                                ("memory_bound", Json::Bool(r.is_memory_bound())),
                                (
                                    "breakdown",
                                    Json::obj([
                                        ("nonzero", Json::UInt(r.breakdown.nonzero)),
                                        ("zero", Json::UInt(r.breakdown.zero)),
                                        ("intra", Json::UInt(r.breakdown.intra)),
                                        ("inter", Json::UInt(r.breakdown.inter)),
                                    ]),
                                ),
                            ])
                        })
                        .collect(),
                );
                Json::obj([("layer", Json::str(l.layer)), ("results", per_scheme)])
            })
            .collect(),
    );
    crate::sink::artifact(&format!("results/{name}.json"), &rows.pretty());
}

/// Prints a speedup figure: per-layer speedups over Dense for each scheme,
/// then geometric means (optionally excluding layers, as the paper does for
/// SCNN on AlexNet Layer0 and for VGGNet Layer0).
pub fn print_speedup_figure(
    title: &str,
    layers: &[LayerResult],
    schemes: &[Scheme],
    mean_excludes: &[(&str, &[&str])],
) {
    crate::outln!("== {title} ==");
    let header: Vec<&str> = std::iter::once("Layer")
        .chain(schemes.iter().map(|s| s.label()))
        .collect();
    let rows: Vec<Vec<String>> = layers
        .iter()
        .map(|l| {
            std::iter::once(l.layer.to_string())
                .chain(l.speedups().iter().map(|v| format!("{v:.2}")))
                .collect()
        })
        .collect();
    crate::tables::print_table(&header, &rows);
    crate::outln!();
    for (si, s) in schemes.iter().enumerate() {
        let exclude = mean_excludes
            .iter()
            .find(|(label, _)| *label == s.label())
            .map(|(_, e)| *e)
            .unwrap_or(&[]);
        let mean = geomean_excluding(layers, |l| l.speedups()[si], exclude);
        let note = if exclude.is_empty() {
            String::new()
        } else {
            format!(" (mean excludes {})", exclude.join(", "))
        };
        crate::outln!("geomean {:<16} {:.2}x{}", s.label(), mean, note);
    }
    crate::outln!();
}

/// Prints a breakdown figure: each scheme's execution-time components
/// normalized to Dense's total slots for that layer (Figures 10–12).
pub fn print_breakdown_figure(
    title: &str,
    layers: &[LayerResult],
    schemes: &[Scheme],
    skip_layers: &[&str],
) {
    crate::outln!("== {title} ==");
    crate::outln!("(components normalized to Dense = 1.0: nonzero/zero/intra/inter)");
    let header: Vec<&str> = std::iter::once("Layer")
        .chain(schemes.iter().map(|s| s.label()))
        .collect();
    let rows: Vec<Vec<String>> = layers
        .iter()
        .filter(|l| !skip_layers.contains(&l.layer))
        .map(|l| {
            let dense_slots = l.results[0].breakdown.total().max(1) as f64;
            std::iter::once(l.layer.to_string())
                .chain(l.results.iter().map(|r| {
                    let b = &r.breakdown;
                    format!(
                        "{:.2}/{:.2}/{:.2}/{:.2}",
                        b.nonzero as f64 / dense_slots,
                        b.zero as f64 / dense_slots,
                        b.intra as f64 / dense_slots,
                        b.inter as f64 / dense_slots,
                    )
                }))
                .collect()
        })
        .collect();
    crate::tables::print_table(&header, &rows);
    crate::outln!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparten::nn::googlenet;

    #[test]
    fn config_selection_matches_paper() {
        assert_eq!(network_config(&googlenet()), SimConfig::small());
        assert_eq!(network_config(&sparten::nn::alexnet()), SimConfig::large());
    }

    #[test]
    fn run_single_small_layer() {
        // One small GoogLeNet layer end to end through two schemes.
        let net = googlenet();
        let spec = net.layer("Inc5a_5x5").expect("layer exists");
        let cfg = SimConfig::small();
        let r = run_layer(spec, &[Scheme::Dense, Scheme::SpartenGbH], &cfg, None);
        assert_eq!(r.results.len(), 2);
        let sp = r.speedups();
        assert_eq!(sp[0], 1.0);
        assert!(sp[1] > 1.0, "SparTen speedup {}", sp[1]);
    }
}
