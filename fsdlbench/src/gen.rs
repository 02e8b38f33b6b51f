//! Seeded operation streams for the three workloads.
//!
//! Everything here is a pure function of `(workload, seed, connection)`:
//! the same seed always yields the same ops, whatever the timing of the
//! run. Endpoints and fault vertices are Zipf-skewed (θ = 0.8) ranks over
//! a seeded permutation of the vertex ids, so which vertices are hot
//! depends on the seed.
//!
//! The operation mix is stratified rather than drawn independently per
//! op: `|F|` comes from a shuffled bag holding each size once, and churn
//! takes one seeded slot in every block of `1 / churn_rate` ops. Every
//! run thus carries the same `|F|` histogram and churn share, and only the
//! vertices and the order depend on the seed; query cost grows with `|F|`,
//! so this keeps the mix from moving the latency figures between seeds.

use fsdl_testkit::Rng;

/// Zipf skew of endpoint and fault picks.
pub const ZIPF_THETA: f64 = 0.8;

/// A churn vertex is not picked again while it is among the last
/// `CHURN_WINDOW` churn vertices of its connection, so a delete never
/// overtakes the restore of the previous churn of the same vertex.
pub const CHURN_WINDOW: usize = 16;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Static lazy store, every query carries |F| uniform in 1..=8.
    StaticFaults,
    /// Four-shard router without a label cache, |F| uniform in 1..=2.
    RoutedCold,
    /// Dynamic oracle: 80% reads with no per-query faults, 20% churn
    /// (delete a vertex, restore it once the delete is acknowledged).
    DynamicChurn,
}

impl Workload {
    /// Parses a workload name as `BENCHMARK.json` spells it.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "static-faults" => Some(Workload::StaticFaults),
            "routed-cold" => Some(Workload::RoutedCold),
            "dynamic-churn" => Some(Workload::DynamicChurn),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::StaticFaults => "static-faults",
            Workload::RoutedCold => "routed-cold",
            Workload::DynamicChurn => "dynamic-churn",
        }
    }

    /// Largest per-query forbidden set (0: queries carry no faults).
    pub fn max_faults(self) -> usize {
        match self {
            Workload::StaticFaults => 8,
            Workload::RoutedCold => 2,
            Workload::DynamicChurn => 0,
        }
    }

    /// Share of operations that are churn writes.
    pub fn churn_rate(self) -> f64 {
        match self {
            Workload::DynamicChurn => 0.2,
            _ => 0.0,
        }
    }

    /// Fixed open-loop rate in operations per second: about half of the
    /// closed-loop `max_qps` this workload reached on the reference host
    /// (see `fsdlbench/README.md`). Fixed so that every commit is
    /// measured at the same offered load.
    pub fn open_rate(self) -> f64 {
        match self {
            Workload::StaticFaults => 100.0,
            Workload::RoutedCold => 26.0,
            Workload::DynamicChurn => 25.0,
        }
    }
}

/// One operation of a stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// A distance query with its per-query forbidden vertices.
    Query {
        /// Source vertex.
        s: u32,
        /// Target vertex.
        t: u32,
        /// Forbidden vertices (distinct, never `s` or `t`).
        faults: Vec<u32>,
    },
    /// Delete `v`, then restore it once the delete is acknowledged.
    Churn {
        /// The churned vertex.
        v: u32,
    },
}

/// Zipf-skewed sampler over a list of vertex ids (rank `k` has weight
/// `1/(k+1)^θ`; ranks are positions in the list).
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
    ids: Vec<u32>,
}

impl Zipf {
    /// A sampler over `ids` in rank order.
    pub fn new(ids: Vec<u32>, theta: f64) -> Zipf {
        assert!(!ids.is_empty(), "a sampler needs at least one vertex");
        let mut total = 0.0;
        let mut cdf = Vec::with_capacity(ids.len());
        for k in 0..ids.len() {
            total += 1.0 / ((k + 1) as f64).powf(theta);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf, ids }
    }

    /// Draws one vertex.
    pub fn sample(&self, rng: &mut Rng) -> u32 {
        let u = rng.gen_f64();
        let rank = self.cdf.partition_point(|&c| c < u);
        self.ids[rank.min(self.ids.len() - 1)]
    }
}

/// The seeded vertex permutation that maps Zipf ranks to vertex ids.
pub fn permutation(n: u32, seed: u64) -> Vec<u32> {
    let mut rng = Rng::seed_from_u64(seed ^ 0x5eed_9e37_79b9_7f4a);
    let mut perm: Vec<u32> = (0..n).collect();
    for i in (1..perm.len()).rev() {
        let j = rng.gen_range(0..=i);
        perm.swap(i, j);
    }
    perm
}

/// One connection's deterministic operation stream.
pub struct Stream {
    workload: Workload,
    n: u32,
    endpoints: Zipf,
    churn: Option<Zipf>,
    recent: Vec<u32>,
    /// Fault-set sizes still to hand out before the bag is refilled.
    sizes: Vec<usize>,
    /// Ops drawn so far, and the churn slot of the current block.
    drawn: usize,
    churn_slot: usize,
    rng: Rng,
}

impl Stream {
    /// Connection `conn`'s stream for `seed`, over a graph of `n`
    /// vertices. Churn vertices come from the connection's own share of
    /// the permutation (positions `≡ conn mod conns`), so two connections
    /// never churn the same vertex.
    pub fn new(workload: Workload, n: u32, seed: u64, conn: u32, conns: u32) -> Stream {
        let perm = permutation(n, seed);
        let churn = (workload.churn_rate() > 0.0).then(|| {
            let own = perm
                .iter()
                .enumerate()
                .filter(|(i, _)| *i as u32 % conns == conn)
                .map(|(_, &v)| v)
                .collect();
            Zipf::new(own, ZIPF_THETA)
        });
        let mut master = Rng::seed_from_u64(seed);
        let mut rng = master.fork();
        for _ in 0..conn {
            rng = master.fork();
        }
        Stream {
            workload,
            n,
            endpoints: Zipf::new(perm, ZIPF_THETA),
            churn,
            recent: Vec::new(),
            sizes: Vec::new(),
            drawn: 0,
            churn_slot: 0,
            rng,
        }
    }

    /// Draws the next operation.
    pub fn next_op(&mut self) -> Op {
        if let Some(churn) = &self.churn {
            let block = (1.0 / self.workload.churn_rate()).round() as usize;
            let pos = self.drawn % block;
            if pos == 0 {
                self.churn_slot = self.rng.gen_range(0..block);
            }
            self.drawn += 1;
            if pos == self.churn_slot {
                let v = loop {
                    let v = churn.sample(&mut self.rng);
                    if !self.recent.contains(&v) {
                        break v;
                    }
                };
                if self.recent.len() == CHURN_WINDOW {
                    self.recent.remove(0);
                }
                self.recent.push(v);
                return Op::Churn { v };
            }
        }
        let s = self.endpoints.sample(&mut self.rng);
        let mut t = self.endpoints.sample(&mut self.rng);
        if t == s {
            t = (s + 1) % self.n;
        }
        let mut faults = Vec::new();
        let max = self.workload.max_faults();
        if max > 0 {
            if self.sizes.is_empty() {
                self.sizes.extend(1..=max);
                for i in (1..max).rev() {
                    let j = self.rng.gen_range(0..=i);
                    self.sizes.swap(i, j);
                }
            }
            let want = self.sizes.pop().expect("the bag was just refilled");
            while faults.len() < want {
                let f = self.endpoints.sample(&mut self.rng);
                if f != s && f != t && !faults.contains(&f) {
                    faults.push(f);
                }
            }
        }
        Op::Query { s, t, faults }
    }
}

/// The open-loop schedule: `count` operations, operation `i` on
/// connection `i % conns`, each connection drawing from its own stream.
pub fn open_loop_ops(workload: Workload, n: u32, seed: u64, conns: u32, count: usize) -> Vec<Op> {
    let mut streams: Vec<Stream> = (0..conns)
        .map(|c| Stream::new(workload, n, seed, c, conns))
        .collect();
    (0..count)
        .map(|i| streams[i % conns as usize].next_op())
        .collect()
}

/// A warm-up pass that names every vertex at least once: queries over
/// consecutive permutation entries, with one forbidden vertex each when
/// the workload carries faults.
pub fn warmup_ops(workload: Workload, n: u32, seed: u64) -> Vec<Op> {
    let perm = permutation(n, seed);
    let width = if workload.max_faults() > 0 { 3 } else { 2 };
    perm.chunks(width)
        .map(|c| {
            let s = c[0];
            let t = *c.get(1).unwrap_or(&perm[(perm.len() - 1) / 2]);
            let t = if t == s { (s + 1) % n } else { t };
            let faults = c.get(2).map(|&f| vec![f]).unwrap_or_default();
            Op::Query { s, t, faults }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn take(workload: Workload, seed: u64, conn: u32, k: usize) -> Vec<Op> {
        let mut s = Stream::new(workload, 576, seed, conn, 2);
        (0..k).map(|_| s.next_op()).collect()
    }

    #[test]
    fn streams_are_deterministic_per_seed() {
        for w in [
            Workload::StaticFaults,
            Workload::RoutedCold,
            Workload::DynamicChurn,
        ] {
            assert_eq!(take(w, 7, 0, 500), take(w, 7, 0, 500));
            assert_eq!(take(w, 7, 1, 500), take(w, 7, 1, 500));
            assert_ne!(take(w, 7, 0, 500), take(w, 8, 0, 500));
            assert_ne!(take(w, 7, 0, 500), take(w, 7, 1, 500));
            assert_eq!(
                open_loop_ops(w, 576, 3, 2, 300),
                open_loop_ops(w, 576, 3, 2, 300)
            );
        }
    }

    #[test]
    fn fault_counts_follow_the_workload() {
        for (w, max) in [(Workload::StaticFaults, 8), (Workload::RoutedCold, 2)] {
            let mut seen = vec![0; max + 1];
            for op in take(w, 11, 0, 200 * max) {
                let Op::Query { s, t, faults } = op else {
                    panic!("{w:?} has no churn");
                };
                assert!((1..=max).contains(&faults.len()));
                assert!(!faults.contains(&s) && !faults.contains(&t) && s != t);
                seen[faults.len()] += 1;
            }
            assert!(
                seen[1..].iter().all(|&k| k == 200),
                "every |F| in 1..={max} drawn equally often: {seen:?}"
            );
        }
    }

    #[test]
    fn churn_sets_are_disjoint_and_windowed() {
        let churned = |conn| -> Vec<u32> {
            take(Workload::DynamicChurn, 5, conn, 4000)
                .into_iter()
                .filter_map(|op| match op {
                    Op::Churn { v } => Some(v),
                    Op::Query { faults, .. } => {
                        assert!(faults.is_empty());
                        None
                    }
                })
                .collect()
        };
        let (a, b) = (churned(0), churned(1));
        assert_eq!(a.len(), 800, "one churn in every block of five ops");
        assert!(
            a.iter().all(|v| !b.contains(v)),
            "connections share a vertex"
        );
        for w in a.windows(CHURN_WINDOW + 1) {
            let last = w[CHURN_WINDOW];
            assert!(!w[..CHURN_WINDOW].contains(&last), "window reuse of {last}");
        }
    }

    #[test]
    fn warmup_names_every_vertex() {
        for w in [Workload::StaticFaults, Workload::DynamicChurn] {
            let mut named = vec![false; 576];
            for op in warmup_ops(w, 576, 9) {
                let Op::Query { s, t, faults } = op else {
                    panic!("warm-up is queries only");
                };
                assert_ne!(s, t);
                assert!(!faults.contains(&s) && !faults.contains(&t));
                for v in [s, t].into_iter().chain(faults) {
                    named[v as usize] = true;
                }
            }
            assert!(named.iter().all(|&b| b));
        }
    }
}
