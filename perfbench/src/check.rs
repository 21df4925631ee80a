//! Answer checking: reference responses computed by direct `sage_core`
//! calls, and a bitwise digest of a response.
//!
//! [`reference`] answers a query the way the serving layer defines it, with
//! the library calls alone. The constants below restate the serving
//! layer's query parameters (they are private to `sage_serve`); if the two
//! ever disagree, the check fails loudly rather than silently.

use crate::adapter::{Query, Response, Snap};
use sage_core::algo;
use sage_graph::{Graph, V};
use std::hash::{DefaultHasher, Hasher};

/// Convergence threshold of a served PageRank.
const PAGERANK_EPS: f64 = 1e-6;
/// LDD parameter of a served connectivity probe.
const CONNECTIVITY_BETA: f64 = 0.2;
/// Seed of a served connectivity probe.
const CONNECTIVITY_SEED: u64 = 0x5A6E_5EED;

/// A 64-bit digest over every bit of a response's payload (floats by their
/// bit patterns), so equal digests mean bitwise-equal answers up to a
/// 2^-64 collision chance.
pub fn digest(r: &Response) -> u64 {
    let mut h = DefaultHasher::new();
    match r {
        Response::Bfs { levels, reached } => {
            h.write_u8(1);
            levels.iter().for_each(|&l| h.write_u64(l));
            h.write_usize(*reached);
        }
        Response::PageRank { ranks, iterations } => {
            h.write_u8(2);
            for &(v, x) in ranks {
                h.write_u32(v);
                h.write_u64(x.to_bits());
            }
            h.write_usize(*iterations);
        }
        Response::KCore { coreness, kmax } => {
            h.write_u8(3);
            for &(v, c) in coreness {
                h.write_u32(v);
                h.write_u32(c);
            }
            h.write_u32(*kmax);
        }
        Response::Connected {
            connected,
            components,
        } => {
            h.write_u8(4);
            h.write_u8(u8::from(*connected));
            h.write_usize(*components);
        }
        Response::Neighborhood { vertices } => {
            h.write_u8(5);
            vertices.iter().for_each(|&v| h.write_u32(v));
        }
        Response::Failed { reason } => {
            h.write_u8(6);
            h.write(reason.as_bytes());
        }
    }
    h.finish()
}

/// Digest of a slice of words (engine outputs that are not responses).
pub fn digest_words(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = DefaultHasher::new();
    words.into_iter().for_each(|w| h.write_u64(w));
    h.finish()
}

/// The answer to `q` by direct library calls on `g`.
pub fn reference<G: Graph>(g: &G, q: &Query) -> Response {
    match q {
        Query::Bfs { src } => {
            let (levels, _) = algo::bfs::bfs_levels(g, *src);
            let reached = levels.iter().filter(|&&l| l != u64::MAX).count();
            Response::Bfs { levels, reached }
        }
        Query::PageRank {
            iters,
            damping,
            vertices,
        } => {
            let pr = algo::pagerank::pagerank_damped(g, PAGERANK_EPS, *iters, *damping);
            Response::PageRank {
                ranks: vertices
                    .iter()
                    .map(|&v| (v, pr.ranks[v as usize]))
                    .collect(),
                iterations: pr.iterations,
            }
        }
        Query::KCore { k, vertices } => {
            let kc = algo::kcore::kcore_bounded(g, *k);
            Response::KCore {
                coreness: vertices
                    .iter()
                    .map(|&v| (v, kc.coreness[v as usize]))
                    .collect(),
                kmax: kc.kmax,
            }
        }
        Query::Connected { u, v } => {
            let labels = algo::connectivity::connectivity(g, CONNECTIVITY_BETA, CONNECTIVITY_SEED);
            Response::Connected {
                connected: labels[*u as usize] == labels[*v as usize],
                components: algo::connectivity::num_components(&labels),
            }
        }
        Query::Neighborhood { src, hops } => {
            let mut out: Vec<V> = Vec::new();
            g.for_each_edge(*src, |d, _| out.push(d));
            if *hops == 2 {
                let first = out.clone();
                for u in first {
                    g.for_each_edge(u, |d, _| out.push(d));
                }
            }
            out.sort_unstable();
            out.dedup();
            out.retain(|&v| v != *src);
            Response::Neighborhood { vertices: out }
        }
    }
}

/// The reference answer on a served snapshot.
pub fn reference_on(snap: &Snap, q: &Query) -> Response {
    match snap {
        Snap::Mono(s) => reference(s.graph(), q),
        Snap::Sharded(s) => reference(s.graph(), q),
    }
}

/// Cheap structural check of a served point lookup, run on every answer:
/// one level per vertex, the source at level 0, and `reached` equal to the
/// number of finite levels.
pub fn bfs_shape_ok(r: &Response, n: usize, src: V) -> bool {
    match r {
        Response::Bfs { levels, reached } => {
            levels.len() == n
                && levels[src as usize] == 0
                && levels.iter().filter(|&&l| l != u64::MAX).count() == *reached
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::Service;
    use std::path::Path;

    #[test]
    fn served_answers_match_the_reference_bitwise() {
        let g = sage_graph::gen::rmat(8, 8, sage_graph::gen::RmatParams::default(), 11);
        let queries = [
            Query::Bfs { src: 3 },
            Query::PageRank {
                iters: 10,
                damping: sage_serve::DEFAULT_DAMPING,
                vertices: vec![0, 5, 9],
            },
            Query::KCore {
                k: Some(8),
                vertices: vec![1, 2],
            },
            Query::KCore {
                k: None,
                vertices: vec![1, 2],
            },
            Query::Connected { u: 0, v: 200 },
            Query::Neighborhood { src: 4, hops: 1 },
            Query::Neighborhood { src: 4, hops: 2 },
        ];
        let want: Vec<u64> = queries.iter().map(|q| digest(&reference(&g, q))).collect();
        let service = Service::start_mono(g, Path::new("unused"), 2, 0);
        let tickets: Vec<_> = queries.iter().map(|q| service.submit(q.clone())).collect();
        let got: Vec<u64> = tickets
            .into_iter()
            .map(|t| digest(&t.wait().response))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn digest_sees_a_single_float_bit() {
        let a = Response::PageRank {
            ranks: vec![(0, 0.25)],
            iterations: 10,
        };
        let b = Response::PageRank {
            ranks: vec![(0, f64::from_bits(0.25f64.to_bits() + 1))],
            iterations: 10,
        };
        assert_ne!(digest(&a), digest(&b));
    }
}
