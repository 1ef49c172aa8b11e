//! The traced replay: experiments whose points redo the program's work
//! call by call through each layer's public functions, with a ledger
//! span around every call. The executor runs them exactly like the
//! registry's jobs, so cache, journal and render still happen for real.

use crate::trace::Ledger;
use sparten::model::dse::{DseAxes, DseGrid, BATCH_SIZE};
use sparten::nn::{all_networks, LayerSpec, Network};
use sparten::sim::breakdown::geometric_mean;
use sparten::sim::{simulate_layer, MaskModel, Scheme, SimConfig};
use sparten_bench::registry::{layer_record, NetworkFigure, Runner};
use sparten_bench::{all_experiments, network_config, Capture, ExperimentKind, LayerResult, SEED};
use sparten_harness::{Experiment, PointPayload};
use std::fmt::Write as _;
use std::sync::Arc;

/// The ledger stage of one scheme's simulation.
pub fn scheme_stage(scheme: Scheme) -> &'static str {
    match scheme {
        Scheme::Dense => "sim.dense",
        Scheme::OneSided => "sim.onesided",
        Scheme::SpartenNoGb => "sim.sparten_nogb",
        Scheme::SpartenGbS => "sim.sparten_gbs",
        Scheme::SpartenGbH => "sim.sparten_gbh",
        Scheme::Scnn => "sim.scnn",
        Scheme::ScnnOneSided => "sim.scnn_onesided",
        Scheme::ScnnDense => "sim.scnn_dense",
    }
}

/// The three two-sided SparTen schedules (no GB, GB-S, GB-H).
pub fn two_sided(scheme: Scheme) -> bool {
    matches!(
        scheme,
        Scheme::SpartenNoGb | Scheme::SpartenGbS | Scheme::SpartenGbH
    )
}

/// Identity of one simulation: (layer, config, scheme, seed). Two calls
/// with the same key compute the same result, so distinct keys ÷ calls
/// is the share of simulations that were not repeats.
pub fn call_key(net: &str, layer: &str, config: &SimConfig, scheme: Scheme) -> String {
    format!(
        "{net}/{layer}/{}/{}/seed={SEED}",
        config.fingerprint(),
        scheme.label()
    )
}

/// Simulates one layer under `schemes`, as `sparten_bench::run_layer`
/// does, with a span around workload generation, the mask build plus
/// total-MAC pass, and each scheme.
pub fn replay_layer(
    ledger: &Ledger,
    net: &Network,
    spec: &LayerSpec,
    schemes: &[Scheme],
    config: &SimConfig,
) -> LayerResult {
    let (workload, _) = ledger.span("nn.gen", || spec.workload(SEED));
    let (model, _) = ledger.span("sim.mask", || {
        let model = MaskModel::new(&workload, config.accel.cluster.chunk_size);
        std::hint::black_box(model.total_sparse_macs());
        model
    });
    let results = schemes
        .iter()
        .map(|&scheme| {
            let (result, took) = ledger.span(scheme_stage(scheme), || {
                simulate_layer(&workload, &model, config, scheme)
            });
            ledger.note_call(call_key(net.name, spec.name, config, scheme));
            if two_sided(scheme) {
                ledger.count("sim.sparse_macs", model.total_sparse_macs());
                if net.name == "VGGNet" {
                    ledger.add_time(format!("sim.sparten.vgg.{}_s", spec.name), took);
                }
            }
            result
        })
        .collect();
    LayerResult {
        layer: spec.name,
        results,
    }
}

/// A registry job whose points are replayed; everything else delegates.
struct Replay {
    inner: Arc<dyn Experiment>,
    ledger: Arc<Ledger>,
    work: Work,
}

enum Work {
    Figure(NetworkFigure),
    Summary,
    Dse(DseGrid),
}

impl Replay {
    fn compute(&self, point: usize) -> PointPayload {
        let ledger = &*self.ledger;
        match &self.work {
            Work::Figure(fig) => {
                let net = (fig.network)();
                let cfg = (fig.config)(&net);
                let layer = replay_layer(ledger, &net, &net.layers[point], &(fig.schemes)(), &cfg);
                PointPayload::Record(layer_record(&layer))
            }
            Work::Summary => PointPayload::Capture(Capture {
                text: summary_headline(ledger),
                artifacts: Vec::new(),
            }),
            Work::Dse(grid) => {
                let total = grid.axes.num_configs();
                let configs = BATCH_SIZE.min(total - point * BATCH_SIZE);
                let (record, _) = ledger.span("model.eval", || grid.batch_record(point));
                ledger.count("model.configs", configs as u64);
                PointPayload::Record(record)
            }
        }
    }
}

impl Experiment for Replay {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn kind(&self) -> ExperimentKind {
        self.inner.kind()
    }

    fn deps(&self) -> &'static [&'static str] {
        self.inner.deps()
    }

    fn num_points(&self) -> usize {
        self.inner.num_points()
    }

    fn fingerprint(&self) -> String {
        self.inner.fingerprint()
    }

    fn compute_point(&self, point: usize) -> PointPayload {
        let (payload, took) = self
            .ledger
            .span("harness.point_other", || self.compute(point));
        self.ledger.note_point(self.inner.name(), took);
        payload
    }

    fn validate(&self, point: usize, payload: &PointPayload) -> bool {
        self.inner.validate(point, payload)
    }

    fn render(&self, points: &[PointPayload]) -> Capture {
        self.ledger
            .span("bench.render", || self.inner.render(points))
            .0
    }
}

/// Wraps `inner` so its points are replayed into `ledger`.
///
/// # Panics
///
/// Panics for a job the replay does not know how to redo.
pub fn wrap(inner: Arc<dyn Experiment>, ledger: &Arc<Ledger>) -> Arc<dyn Experiment> {
    let name = inner.name();
    let work = match name {
        "summary_headline" => Work::Summary,
        "dse-full" => Work::Dse(DseGrid::new(DseAxes::full())),
        _ => match all_experiments()
            .into_iter()
            .find(|s| s.name == name)
            .map(|s| s.runner)
        {
            Some(Runner::PerLayer(fig)) => Work::Figure(fig),
            _ => panic!("no replay for job `{name}`"),
        },
    };
    Arc::new(Replay {
        inner,
        ledger: Arc::clone(ledger),
        work,
    })
}

/// `summary_headline`'s output, recomputed through [`replay_layer`]. The
/// figures-cold output check compares it with the committed results.
fn summary_headline(ledger: &Ledger) -> String {
    const SCHEMES: [Scheme; 4] = [
        Scheme::Dense,
        Scheme::OneSided,
        Scheme::SpartenGbH,
        Scheme::Scnn,
    ];
    let cycles = |l: &LayerResult, i: usize| l.results[i].cycles() as f64;
    let (mut vs_dense, mut vs_one, mut vs_scnn) = (Vec::new(), Vec::new(), Vec::new());
    for net in all_networks() {
        let cfg = network_config(&net);
        for spec in &net.layers {
            let l = replay_layer(ledger, &net, spec, &SCHEMES, &cfg);
            vs_dense.push(cycles(&l, 0) / cycles(&l, 2));
            vs_one.push(cycles(&l, 1) / cycles(&l, 2));
            if !(net.name == "AlexNet" && l.layer == "Layer0") {
                vs_scnn.push(cycles(&l, 3) / cycles(&l, 2));
            }
        }
    }
    let (mut f_dense, mut f_one) = (Vec::new(), Vec::new());
    let fpga = SimConfig::fpga();
    for net in all_networks() {
        for spec in &net.layers {
            let l = replay_layer(ledger, &net, spec, &SCHEMES[..3], &fpga);
            f_dense.push(cycles(&l, 0) / cycles(&l, 2));
            f_one.push(cycles(&l, 1) / cycles(&l, 2));
        }
    }
    let mut out = String::from("== Headline means (geometric, across all benchmark layers) ==\n\n");
    let gm = geometric_mean;
    let _ = writeln!(out, "Simulation (paper: 4.7x / 1.8x / 3x):");
    let _ = writeln!(out, "  SparTen vs Dense     : {:.2}x", gm(&vs_dense));
    let _ = writeln!(out, "  SparTen vs One-sided : {:.2}x", gm(&vs_one));
    let _ = writeln!(
        out,
        "  SparTen vs SCNN      : {:.2}x (excl. AlexNet Layer0)",
        gm(&vs_scnn)
    );
    let _ = writeln!(out, "\nFPGA configuration (paper: 4.3x / 1.9x):");
    let _ = writeln!(out, "  SparTen vs Dense     : {:.2}x", gm(&f_dense));
    let _ = writeln!(out, "  SparTen vs One-sided : {:.2}x", gm(&f_one));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparten::nn::vggnet;

    #[test]
    fn unique_ratio_key_is_layer_config_scheme_seed() {
        let net = vggnet();
        let large = network_config(&net);
        let a = call_key(net.name, "Layer3", &large, Scheme::SpartenGbH);
        // fig9 and fig12 simulate the same VGG layers under the same config.
        assert_eq!(
            a,
            call_key(
                net.name,
                "Layer3",
                &network_config(&vggnet()),
                Scheme::SpartenGbH
            )
        );
        assert_ne!(a, call_key(net.name, "Layer4", &large, Scheme::SpartenGbH));
        assert_ne!(
            a,
            call_key(net.name, "Layer3", &SimConfig::fpga(), Scheme::SpartenGbH)
        );
        assert_ne!(a, call_key(net.name, "Layer3", &large, Scheme::SpartenGbS));
        assert!(a.ends_with(&format!("seed={SEED}")));
    }

    #[test]
    fn stages_cover_every_scheme_once() {
        let stages: std::collections::HashSet<_> =
            Scheme::all().iter().map(|&s| scheme_stage(s)).collect();
        assert_eq!(stages.len(), Scheme::all().len());
        assert_eq!(Scheme::all().iter().filter(|&&s| two_sided(s)).count(), 3);
    }
}
