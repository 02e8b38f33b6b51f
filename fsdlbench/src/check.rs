//! Answer checking against breadth-first search on `G ∖ F`.
//!
//! The oracle promises `d ≤ δ ≤ (1+ε)·d` where `d = d_{G∖F}(s, t)`, and
//! `δ = ∞` exactly when `s` and `t` are disconnected in `G ∖ F`. Under
//! churn the exact `F` a query saw is not known to the client, so the
//! check takes two sets: the faults *certainly* in effect give the lower
//! bound (removing fewer vertices can only shorten paths) and the faults
//! *possibly* in effect give the upper bound.

use std::collections::VecDeque;

use fsdl_graph::{Graph, NodeId};

/// BFS distances on a fixed graph with per-call blocked vertices.
pub struct Checker {
    adj: Vec<Vec<u32>>,
    eps: f64,
    dist: Vec<u32>,
    blocked: Vec<bool>,
    queue: VecDeque<u32>,
}

impl Checker {
    /// A checker for `g` at precision `eps`.
    pub fn new(g: &Graph, eps: f64) -> Checker {
        let n = g.num_vertices();
        let adj = (0..n)
            .map(|v| g.neighbors(NodeId::from_index(v)).to_vec())
            .collect();
        Checker {
            adj,
            eps,
            dist: vec![u32::MAX; n],
            blocked: vec![false; n],
            queue: VecDeque::new(),
        }
    }

    /// Hop distance from `s` to `t` avoiding `faults` (`None` when
    /// disconnected or when an endpoint is itself forbidden).
    pub fn distance(&mut self, s: u32, t: u32, faults: &[u32]) -> Option<u32> {
        for &f in faults {
            self.blocked[f as usize] = true;
        }
        let answer = self.bfs(s, t);
        for &f in faults {
            self.blocked[f as usize] = false;
        }
        answer
    }

    fn bfs(&mut self, s: u32, t: u32) -> Option<u32> {
        if self.blocked[s as usize] || self.blocked[t as usize] {
            return None;
        }
        self.dist.fill(u32::MAX);
        self.queue.clear();
        self.dist[s as usize] = 0;
        self.queue.push_back(s);
        while let Some(u) = self.queue.pop_front() {
            let du = self.dist[u as usize];
            if u == t {
                return Some(du);
            }
            for &w in &self.adj[u as usize] {
                if !self.blocked[w as usize] && self.dist[w as usize] == u32::MAX {
                    self.dist[w as usize] = du + 1;
                    self.queue.push_back(w);
                }
            }
        }
        None
    }

    /// Checks one answer `delta` (`None` = infinite) for `(s, t)` given the
    /// faults certainly and possibly in effect (equal for a static query).
    /// Returns the stretch `δ/d` when the fault set is unambiguous and the
    /// pair connected, or a description of the violation.
    pub fn check(
        &mut self,
        s: u32,
        t: u32,
        delta: Option<u32>,
        certain: &[u32],
        possible: &[u32],
    ) -> Result<Option<f64>, String> {
        let lo = self.distance(s, t, certain);
        let hi = if possible.len() == certain.len() {
            lo
        } else {
            self.distance(s, t, possible)
        };
        let case = || format!("s={s} t={t} certain={certain:?} possible={possible:?}");
        match (delta, lo, hi) {
            (Some(x), None, _) => Err(format!("{}: δ={x} but s,t are disconnected", case())),
            (None, _, Some(d)) => Err(format!("{}: δ=∞ but d={d}", case())),
            (Some(x), Some(d_lo), hi) => {
                if x < d_lo {
                    return Err(format!("{}: δ={x} below the BFS distance {d_lo}", case()));
                }
                if let Some(d_hi) = hi {
                    if f64::from(x) > (1.0 + self.eps) * f64::from(d_hi) + 1e-9 {
                        return Err(format!(
                            "{}: δ={x} above (1+ε)·d = {}",
                            case(),
                            (1.0 + self.eps) * f64::from(d_hi)
                        ));
                    }
                }
                let exact = possible.len() == certain.len();
                Ok((exact && d_lo > 0).then(|| f64::from(x) / f64::from(d_lo)))
            }
            (None, _, None) => Ok(None),
        }
    }
}

/// The life of one churned vertex, in seconds since the run's epoch.
/// `f64::INFINITY` marks an event that never happened.
#[derive(Clone, Copy, Debug)]
pub struct ChurnWindow {
    /// The churned vertex.
    pub v: u32,
    /// Delete sent.
    pub delete_sent: f64,
    /// Delete acknowledged.
    pub delete_ack: f64,
    /// Restore sent.
    pub restore_sent: f64,
    /// Restore acknowledged.
    pub restore_ack: f64,
}

/// The faults certainly and possibly in effect while a request sent at
/// `sent` was answered by `received`. A deletion is certain when it was
/// acknowledged before the request left and its restore was sent after
/// the answer came back; it is possible when the delete was sent before
/// the answer and the restore acknowledged after the request left.
pub fn faults_in_effect(windows: &[ChurnWindow], sent: f64, received: f64) -> (Vec<u32>, Vec<u32>) {
    let mut certain = Vec::new();
    let mut possible = Vec::new();
    for w in windows {
        if w.delete_sent < received && w.restore_ack > sent {
            possible.push(w.v);
            if w.delete_ack < sent && w.restore_sent > received {
                certain.push(w.v);
            }
        }
    }
    certain.sort_unstable();
    certain.dedup();
    possible.sort_unstable();
    possible.dedup();
    (certain, possible)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsdl_graph::generators;

    fn checker() -> Checker {
        Checker::new(&generators::grid2d(6, 6), 1.0)
    }

    #[test]
    fn true_distances_pass_and_report_stretch() {
        let mut c = checker();
        // Corner to corner on a 6×6 grid is 10 hops; a (1+ε) answer passes.
        assert_eq!(c.check(0, 35, Some(10), &[], &[]), Ok(Some(1.0)));
        assert_eq!(c.check(0, 35, Some(20), &[], &[]), Ok(Some(2.0)));
        // Blocking both neighbours of corner 0 disconnects it.
        assert_eq!(c.distance(0, 35, &[1, 6]), None);
        assert_eq!(c.check(0, 35, None, &[1, 6], &[1, 6]), Ok(None));
    }

    #[test]
    fn planted_errors_are_rejected() {
        let mut c = checker();
        // Tampered distances: below BFS, above (1+ε)·BFS.
        assert!(c.check(0, 35, Some(9), &[], &[]).is_err());
        assert!(c.check(0, 35, Some(21), &[], &[]).is_err());
        // A distance that only a path through the forbidden vertex
        // achieves is caught.
        let d = c.distance(0, 5, &[2]).expect("connected");
        assert!(d > 5);
        assert!(c.check(0, 5, Some(5), &[2], &[2]).is_err());
        // Reachability must agree both ways.
        assert!(c.check(0, 35, None, &[], &[]).is_err());
        assert!(c.check(0, 35, Some(10), &[1, 6], &[1, 6]).is_err());
    }

    #[test]
    fn churn_bounds_use_certain_and_possible_faults() {
        let w = |v, ds, da, rs, ra| ChurnWindow {
            v,
            delete_sent: ds,
            delete_ack: da,
            restore_sent: rs,
            restore_ack: ra,
        };
        let windows = [
            w(1, 0.0, 1.0, 5.0, 6.0),
            w(6, 2.0, 3.0, 4.0, 4.5),
            w(7, 10.0, 11.0, f64::INFINITY, f64::INFINITY),
        ];
        // Sent at 1.5, answered at 3.5: vertex 1 certain, 6 in flight.
        assert_eq!(faults_in_effect(&windows, 1.5, 3.5), (vec![1], vec![1, 6]));
        // After every restore acknowledged and before 7's delete: nothing.
        assert_eq!(faults_in_effect(&windows, 6.5, 7.0), (vec![], vec![]));
        let mut c = checker();
        // With 1 certain and 6 possibly deleted, corner 0 may be cut off:
        // an infinite answer and the detour distance both pass, a
        // distance shorter than the certain-fault BFS does not.
        let (certain, possible) = faults_in_effect(&windows, 1.5, 3.5);
        assert_eq!(c.check(0, 35, None, &certain, &possible), Ok(None));
        assert_eq!(c.check(0, 35, Some(10), &certain, &possible), Ok(None));
        assert!(c.check(0, 35, Some(9), &certain, &possible).is_err());
    }
}
