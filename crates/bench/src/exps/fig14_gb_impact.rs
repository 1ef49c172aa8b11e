//! Regenerates Figure 14: the impact of greedy balancing on AlexNet
//! Layer2's per-chunk filter densities — the sorted single-filter densities
//! (red curve) versus the collocated pair densities after GB-H (blue curve).

use sparten::core::balance::paired_chunk_densities;
use sparten::core::chunking::filter_chunk_nnz;
use sparten::nn::alexnet;
use crate::{print_series, SEED};

pub fn run() {
    crate::outln!("== Figure 14: Impact of Greedy Balancing (AlexNet Layer2, chunk 0) ==");
    let net = alexnet();
    let spec = net.layer("Layer2").expect("Layer2 exists");
    let w = spec.workload(SEED);
    let chunk = 128;

    let mut singles: Vec<f64> = w
        .filters
        .iter()
        .map(|f| filter_chunk_nnz(f, chunk)[0] as f64 / chunk as f64)
        .collect();
    singles.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let mut pairs = paired_chunk_densities(&w.filters, chunk, 0);
    pairs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));

    let stats = |v: &[f64]| {
        let min = v.iter().cloned().fold(f64::MAX, f64::min);
        let max = v.iter().cloned().fold(f64::MIN, f64::max);
        let median = v[v.len() / 2];
        (min, median, max)
    };
    let (smin, smed, smax) = stats(&singles);
    let (pmin, pmed, pmax) = stats(&pairs);
    crate::outln!(
        "{} filters:     min {:.3}  median {:.3}  max {:.3}  (spread {:.3})",
        singles.len(),
        smin,
        smed,
        smax,
        smax - smin
    );
    crate::outln!(
        "{} filter-pairs: min {:.3}  median {:.3}  max {:.3}  (spread {:.3})",
        pairs.len(),
        pmin,
        pmed,
        pmax,
        pmax - pmin
    );
    crate::outln!(
        "GB-H cuts the density spread by {:.1}x\n",
        (smax - smin) / (pmax - pmin)
    );
    print_series("filters (sorted)", &singles);
    crate::outln!();
    print_series("filter-pairs (sorted)", &pairs);
}
