//! Point-to-point link state.

/// The administrative state of an (undirected) link between two nodes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkState {
    /// Whether the link is up. A down link carries no traffic at all.
    pub up: bool,
    /// Probability that any single message on this link is silently lost
    /// even while the link is up (observed by the sender as a timeout).
    pub drop_prob: f64,
}

impl Default for LinkState {
    fn default() -> Self {
        LinkState {
            up: true,
            drop_prob: 0.0,
        }
    }
}

impl LinkState {
    /// A healthy, lossless link.
    pub fn healthy() -> Self {
        Self::default()
    }

    /// A link that is administratively down.
    pub fn down() -> Self {
        LinkState {
            up: false,
            drop_prob: 0.0,
        }
    }

    /// A lossy-but-up link.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not a probability in `[0, 1]`.
    pub fn lossy(p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "drop probability {p} not in [0,1]"
        );
        LinkState {
            up: true,
            drop_prob: p,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_healthy() {
        let l = LinkState::default();
        assert!(l.up);
        assert_eq!(l.drop_prob, 0.0);
        assert_eq!(l, LinkState::healthy());
    }

    #[test]
    fn down_carries_no_traffic_flag() {
        assert!(!LinkState::down().up);
    }

    #[test]
    fn lossy_accepts_valid_probability() {
        let l = LinkState::lossy(0.25);
        assert!(l.up);
        assert_eq!(l.drop_prob, 0.25);
    }

    #[test]
    #[should_panic(expected = "not in [0,1]")]
    fn lossy_rejects_bad_probability() {
        LinkState::lossy(1.5);
    }
}
