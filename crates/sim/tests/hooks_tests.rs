//! Hook composition at the runner level: `simulate` over every scheme,
//! with and without a unit fault, with and without telemetry.
//!
//! Faults are `Slow(4)` and `Stuck` on the first unit, the last unit and
//! one past the array (SparTen-family schemes address `cluster`/`unit`;
//! SCNN variants address the flat PE index in `cluster`). The layer is
//! dense enough that every in-range victim holds work. For every case:
//!
//! * telemetry never changes the result or the error;
//! * every `Ok` under telemetry reconciled and landed in the session;
//! * an in-range `Stuck` victim returns `SimError::StuckUnit`, while Dense
//!   and out-of-range victims return the clean result;
//! * `simulate` with default hooks equals `simulate_layer`.

use sparten_core::SimError;
use sparten_faults::{UnitFault, UnitFaultSpec};
use sparten_nn::generate::workload;
use sparten_nn::ConvShape;
use sparten_sim::{simulate, simulate_layer, Hooks, MaskModel, Scheme, SimConfig};
use sparten_telemetry::Telemetry;

fn is_scnn(scheme: Scheme) -> bool {
    matches!(
        scheme,
        Scheme::Scnn | Scheme::ScnnOneSided | Scheme::ScnnDense
    )
}

/// The first, the last and a past-the-end victim, as `(spec, in_range)`.
fn victims(scheme: Scheme, cfg: &SimConfig, fault: UnitFault) -> Vec<(UnitFaultSpec, bool)> {
    let spec = |cluster, unit| UnitFaultSpec {
        cluster,
        unit,
        fault,
    };
    if is_scnn(scheme) {
        let pes = cfg.scnn.num_pes;
        vec![
            (spec(0, 0), true),
            (spec(pes - 1, 0), true),
            (spec(pes, 0), false),
        ]
    } else {
        let (clusters, units) = (cfg.accel.num_clusters, cfg.accel.cluster.compute_units);
        vec![
            (spec(0, 0), true),
            (spec(clusters - 1, units - 1), true),
            (spec(0, units), false),
        ]
    }
}

#[test]
fn hooks_compose_over_every_scheme_fault_and_session() {
    let shape = ConvShape::new(40, 8, 8, 3, 12, 1, 1);
    let w = workload(&shape, 0.4, 0.35, 31);
    let mut cfg = SimConfig::small();
    cfg.accel.num_clusters = 2;
    cfg.accel.cluster.compute_units = 4;
    let m = MaskModel::new(&w, cfg.accel.cluster.chunk_size);

    for scheme in Scheme::all() {
        let clean = simulate_layer(&w, &m, &cfg, scheme);
        let plain = simulate(&w, &m, &cfg, scheme, &Hooks::default());
        assert_eq!(plain, Ok(clean.clone()), "{scheme:?}: default hooks");

        let mut cases: Vec<(Option<UnitFaultSpec>, bool)> = vec![(None, false)];
        for fault in [UnitFault::Slow(4), UnitFault::Stuck] {
            cases.extend(
                victims(scheme, &cfg, fault)
                    .into_iter()
                    .map(|(spec, in_range)| (Some(spec), in_range)),
            );
        }
        for (fault, in_range) in cases {
            let what = format!("{scheme:?} {fault:?}");
            let untraced = Hooks {
                telemetry: None,
                fault: fault.as_ref(),
            };
            let got = simulate(&w, &m, &cfg, scheme, &untraced);

            let session = Telemetry::new();
            let traced = Hooks {
                telemetry: Some((&session, "h:")),
                fault: fault.as_ref(),
            };
            let with_tel = simulate(&w, &m, &cfg, scheme, &traced);
            assert_eq!(with_tel, got, "{what}: telemetry changed the outcome");
            if let Ok(r) = &with_tel {
                let snap = session.metrics.snapshot();
                let nonzero = snap.counter(&format!("{}/work.nonzero", r.scheme));
                assert_eq!(nonzero, Some(r.breakdown.nonzero), "{what}: merged session");
                assert!(r.accounting_holds(), "{what}: accounting");
            }

            let fires = in_range && scheme != Scheme::Dense;
            match fault.map(|f| f.fault) {
                Some(UnitFault::Stuck) if fires => {
                    let f = fault.expect("a stuck fault");
                    let expect = SimError::StuckUnit {
                        cluster: f.cluster,
                        unit: if is_scnn(scheme) { 0 } else { f.unit },
                    };
                    assert_eq!(got, Err(expect), "{what}: stuck victim holds work");
                }
                Some(UnitFault::Slow(_)) if fires => {
                    let r =
                        got.unwrap_or_else(|e| panic!("{what}: a slow unit is survivable: {e}"));
                    assert_eq!(r.breakdown.nonzero, clean.breakdown.nonzero, "{what}");
                    assert_eq!(r.breakdown.zero, clean.breakdown.zero, "{what}");
                    assert!(r.compute_cycles >= clean.compute_cycles, "{what}");
                }
                _ => assert_eq!(got, Ok(clean.clone()), "{what}: the fault cannot fire"),
            }
        }
    }
}
