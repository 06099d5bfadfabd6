//! Latency models for simulated links.
//!
//! The paper's dynamic sets fetch "closer" files first; the
//! [`LatencyModel::SiteDistance`] model gives that notion teeth by charging
//! per-hop latency proportional to the distance between two sites.

use crate::node::Node;
use crate::rng::SimRng;
use crate::time::SimDuration;

/// How long a one-way message between two nodes takes.
#[derive(Clone, Debug, PartialEq)]
pub enum LatencyModel {
    /// Every message takes exactly this long.
    Constant(SimDuration),
    /// Uniformly distributed in `[lo, hi]`.
    Uniform {
        /// Minimum one-way latency.
        lo: SimDuration,
        /// Maximum one-way latency.
        hi: SimDuration,
    },
    /// Exponentially distributed with the given mean, plus a fixed floor.
    /// Models WAN tail latency.
    Exponential {
        /// Latency floor added to every sample.
        floor: SimDuration,
        /// Mean of the exponential component.
        mean: SimDuration,
    },
    /// `base + per_hop * |site(a) - site(b)|`: nodes in the same site are
    /// fast to reach, far sites are slow. Used for closest-first fetching.
    SiteDistance {
        /// Latency between nodes in the same site.
        base: SimDuration,
        /// Extra latency per unit of site distance.
        per_hop: SimDuration,
    },
}

impl Default for LatencyModel {
    /// A LAN-ish default: uniform 1-3ms.
    fn default() -> Self {
        LatencyModel::Uniform {
            lo: SimDuration::from_millis(1),
            hi: SimDuration::from_millis(3),
        }
    }
}

impl LatencyModel {
    /// Samples a one-way latency for a message from `a` to `b`.
    pub fn sample(&self, a: &Node, b: &Node, rng: &mut SimRng) -> SimDuration {
        match *self {
            LatencyModel::Constant(d) => d,
            LatencyModel::Uniform { lo, hi } => {
                if hi <= lo {
                    lo
                } else {
                    SimDuration::from_micros(rng.range_u64(lo.as_micros(), hi.as_micros() + 1))
                }
            }
            LatencyModel::Exponential { floor, mean } => {
                let extra = rng.exponential(mean.as_micros() as f64);
                floor + SimDuration::from_micros(extra as u64)
            }
            LatencyModel::SiteDistance { base, per_hop } => {
                let dist = a.site().abs_diff(b.site()) as u64;
                base + per_hop.saturating_mul(dist)
            }
        }
    }

    /// A deterministic *estimate* of the latency from `a` to `b`, used by
    /// schedulers (e.g. closest-first prefetching) that must rank targets
    /// without consuming randomness.
    pub fn estimate(&self, a: &Node, b: &Node) -> SimDuration {
        match *self {
            LatencyModel::Constant(d) => d,
            LatencyModel::Uniform { lo, hi } => {
                SimDuration::from_micros((lo.as_micros() + hi.as_micros()) / 2)
            }
            LatencyModel::Exponential { floor, mean } => floor + mean,
            LatencyModel::SiteDistance { base, per_hop } => {
                let dist = a.site().abs_diff(b.site()) as u64;
                base + per_hop.saturating_mul(dist)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeId;

    fn node(id: u32, site: u32) -> Node {
        Node::new(NodeId(id), format!("n{id}"), site)
    }

    #[test]
    fn constant_is_constant() {
        let m = LatencyModel::Constant(SimDuration::from_millis(5));
        let (a, b) = (node(0, 0), node(1, 9));
        let mut rng = SimRng::new(1);
        for _ in 0..10 {
            assert_eq!(m.sample(&a, &b, &mut rng), SimDuration::from_millis(5));
        }
        assert_eq!(m.estimate(&a, &b), SimDuration::from_millis(5));
    }

    #[test]
    fn uniform_stays_in_bounds() {
        let m = LatencyModel::Uniform {
            lo: SimDuration::from_micros(100),
            hi: SimDuration::from_micros(200),
        };
        let (a, b) = (node(0, 0), node(1, 0));
        let mut rng = SimRng::new(2);
        for _ in 0..1000 {
            let d = m.sample(&a, &b, &mut rng);
            assert!(
                (100..=200).contains(&d.as_micros()),
                "sample out of bounds: {d}"
            );
        }
    }

    #[test]
    fn degenerate_uniform_returns_lo() {
        let m = LatencyModel::Uniform {
            lo: SimDuration::from_micros(100),
            hi: SimDuration::from_micros(100),
        };
        let (a, b) = (node(0, 0), node(1, 0));
        let mut rng = SimRng::new(2);
        assert_eq!(m.sample(&a, &b, &mut rng), SimDuration::from_micros(100));
    }

    #[test]
    fn exponential_respects_floor() {
        let m = LatencyModel::Exponential {
            floor: SimDuration::from_millis(10),
            mean: SimDuration::from_millis(5),
        };
        let (a, b) = (node(0, 0), node(1, 0));
        let mut rng = SimRng::new(3);
        for _ in 0..500 {
            assert!(m.sample(&a, &b, &mut rng) >= SimDuration::from_millis(10));
        }
    }

    #[test]
    fn site_distance_scales_with_distance() {
        let m = LatencyModel::SiteDistance {
            base: SimDuration::from_millis(1),
            per_hop: SimDuration::from_millis(10),
        };
        let mut rng = SimRng::new(4);
        let near = m.sample(&node(0, 2), &node(1, 2), &mut rng);
        let far = m.sample(&node(0, 2), &node(1, 7), &mut rng);
        assert_eq!(near, SimDuration::from_millis(1));
        assert_eq!(far, SimDuration::from_millis(51));
        assert_eq!(m.estimate(&node(0, 2), &node(1, 7)), far);
    }

    #[test]
    fn estimate_is_midpoint_for_uniform() {
        let m = LatencyModel::Uniform {
            lo: SimDuration::from_micros(100),
            hi: SimDuration::from_micros(300),
        };
        assert_eq!(
            m.estimate(&node(0, 0), &node(1, 0)),
            SimDuration::from_micros(200)
        );
    }
}
