//! Memoised dependency-score evaluation.
//!
//! The Metropolis–Hastings chains revisit states: on a graph with `n`
//! vertices, a `T`-step chain proposes at most `T + 1` distinct sources but
//! typically far fewer (the stationary distribution concentrates on
//! high-dependency sources). Each distinct source costs one SPD pass
//! (`O(|E|)`); caching the result turns revisits into hash lookups.
//!
//! For the joint-space sampler the oracle stores the dependency of a source
//! on *all* probe vertices at once — a single backward accumulation already
//! produces `δ_{v•}(x)` for every `x` (Eq 4), so the per-probe marginal cost
//! is zero.
//!
//! Both oracles evaluate through an [`SpdView`] — a graph together with
//! (optionally) its reduction from `mhbc_graph::reduce`. With a reduction
//! active, cache entries are keyed by [`SpdView::row_key`] rather than by
//! source vertex: structurally equivalent sources (twins of equal pendant
//! weight; pendant vertices of the same attachment and branch shape) have
//! *identical* dependency rows, so a whole equivalence class costs one SPD
//! pass over the reduced CSR instead of one per member. Direct views key by
//! vertex id, which reproduces the pre-reduction behaviour exactly.
//!
//! A [`ProbeOracle`] also serves several *independent* consumers at once —
//! the multi-probe scheduler gives every probe's chain one column of a
//! single oracle over the whole probe set, so a source costs one SPD pass
//! however many chains propose it. Each lookup, and the SPD pass a miss
//! performs, is charged to the column whose consumer asked, so per-column
//! figures sum to the oracle's totals.
//!
//! Capacity-limited oracles evict with a second-chance (CLOCK) policy: each
//! cached row carries a referenced bit that hits set and the clock hand
//! clears, so the chain's hot working set — exactly the high-dependency
//! sources the stationary law revisits — survives evictions that a
//! wholesale flush would destroy.

use mhbc_graph::{CsrGraph, Vertex};
use mhbc_spd::{SpdView, ViewCalculator};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OracleStats {
    /// Evaluations answered from the cache.
    pub hits: u64,
    /// Evaluations that required an SPD pass.
    pub misses: u64,
}

impl OracleStats {
    /// Fraction of evaluations served from cache (0 when unused).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Validates a probe set against a view: non-empty, in range, and (for
/// reduced views) retained — pruned probes have closed-form exact BC and
/// must not reach the samplers.
fn validate_probes(view: &SpdView<'_>, probes: &[Vertex]) -> Vec<bool> {
    assert!(!probes.is_empty(), "probe set must be non-empty");
    let n = view.num_vertices();
    let mut flag = vec![false; n];
    for &p in probes {
        assert!((p as usize) < n, "probe {p} out of range");
        assert!(
            view.is_retained(p),
            "probe {p} was pruned by the reduction; use ReducedGraph::exact_pruned_bc"
        );
        flag[p as usize] = true;
    }
    flag
}

/// One CLOCK ring slot: a cached dependency row plus its second-chance bit.
struct Slot {
    key: u64,
    row: Box<[f64]>,
    referenced: bool,
}

/// Lookups and SPD passes charged to one probe column.
#[derive(Debug, Clone, Copy, Default)]
struct Charge {
    stats: OracleStats,
    passes: u64,
}

/// Memoises `δ_{source•}(r)` for a fixed probe set, keyed by the source's
/// [`SpdView::row_key`] (equal to the vertex id on direct views).
///
/// Unbounded by default; [`ProbeOracle::with_capacity_limit`] bounds the
/// number of cached rows with second-chance eviction (see module docs).
pub struct ProbeOracle<'g> {
    view: SpdView<'g>,
    probes: Vec<Vertex>,
    probe_flag: Vec<bool>,
    calc: ViewCalculator<'g>,
    index: HashMap<u64, usize>,
    slots: Vec<Slot>,
    hand: usize,
    capacity: usize,
    /// Per-column counters (module docs). Passes are counted here rather
    /// than read off the calculator so a restored checkpoint's count keeps
    /// accumulating across save/resume boundaries.
    charges: Vec<Charge>,
}

impl<'g> ProbeOracle<'g> {
    /// Oracle evaluating directly on `graph` (panics on empty probes or
    /// out-of-range ids — the samplers validate beforehand).
    pub fn new(graph: &'g CsrGraph, probes: &[Vertex]) -> Self {
        Self::for_view(SpdView::direct(graph), probes)
    }

    /// Oracle evaluating through `view` (direct or reduced). With a
    /// reduction, every probe must be retained (panics otherwise; the
    /// samplers surface this as a `CoreError` first).
    pub fn for_view(view: SpdView<'g>, probes: &[Vertex]) -> Self {
        let probe_flag = validate_probes(&view, probes);
        ProbeOracle {
            view,
            probes: probes.to_vec(),
            probe_flag,
            calc: ViewCalculator::new(view),
            index: HashMap::new(),
            slots: Vec::new(),
            hand: 0,
            capacity: usize::MAX,
            charges: vec![Charge::default(); probes.len()],
        }
    }

    /// Bounds the cache to `entries` rows, evicted one at a time by the
    /// second-chance (CLOCK) policy: the hand sweeps the ring clearing
    /// referenced bits and replaces the first slot whose bit is already
    /// clear. Sources the chain keeps revisiting keep their bit set and
    /// survive; one-shot proposals are recycled first.
    pub fn with_capacity_limit(mut self, entries: usize) -> Self {
        self.capacity = entries.max(1);
        self
    }

    /// The probe set.
    pub fn probes(&self) -> &[Vertex] {
        &self.probes
    }

    /// The view this oracle evaluates against.
    pub fn view(&self) -> SpdView<'g> {
        self.view
    }

    /// `δ_{source•}(r)` for every probe `r`, cached; the lookup is charged
    /// to column 0 (a joint-space chain reads every column at once).
    pub fn deps(&mut self, source: Vertex) -> &[f64] {
        let i = self.lookup(source, 0);
        &self.slots[i].row
    }

    /// `δ_{source•}(probes[idx])`, cached; the lookup, and the SPD pass a
    /// miss performs, are charged to column `idx`.
    pub fn dep(&mut self, source: Vertex, idx: usize) -> f64 {
        let i = self.lookup(source, idx);
        self.slots[i].row[idx]
    }

    /// The slot holding `source`'s row, computing it on a miss; charges
    /// column `col`.
    fn lookup(&mut self, source: Vertex, col: usize) -> usize {
        let key = self.view.row_key(source, self.probe_flag[source as usize]);
        let charge = &mut self.charges[col];
        if let Some(&i) = self.index.get(&key) {
            charge.stats.hits += 1;
            self.slots[i].referenced = true;
            return i;
        }
        charge.stats.misses += 1;
        charge.passes += 1;
        let mut row = Vec::with_capacity(self.probes.len());
        self.calc.dependency_on_many(source, &self.probes, &mut row);
        let slot = Slot { key, row: row.into_boxed_slice(), referenced: false };
        let i = if self.slots.len() < self.capacity {
            self.slots.push(slot);
            self.slots.len() - 1
        } else {
            // Second-chance sweep: clear referenced bits until an
            // unreferenced victim comes under the hand.
            loop {
                let h = self.hand;
                self.hand = (self.hand + 1) % self.slots.len();
                if self.slots[h].referenced {
                    self.slots[h].referenced = false;
                } else {
                    self.index.remove(&self.slots[h].key);
                    self.slots[h] = slot;
                    break h;
                }
            }
        };
        self.index.insert(key, i);
        i
    }

    /// Cache statistics, summed over all columns.
    pub fn stats(&self) -> OracleStats {
        self.charges.iter().fold(OracleStats::default(), |acc, c| OracleStats {
            hits: acc.hits + c.stats.hits,
            misses: acc.misses + c.stats.misses,
        })
    }

    /// Number of SPD passes performed (equals `stats().misses` while the
    /// cache is unbounded), counted across checkpoint/resume boundaries.
    pub fn spd_passes(&self) -> u64 {
        self.charges.iter().map(|c| c.passes).sum()
    }

    /// Cache statistics charged to column `idx`.
    pub fn column_stats(&self, idx: usize) -> OracleStats {
        self.charges[idx].stats
    }

    /// SPD passes charged to column `idx`: the misses its lookups caused.
    pub fn column_passes(&self, idx: usize) -> u64 {
        self.charges[idx].passes
    }

    /// Number of distinct dependency rows currently cached.
    pub fn cached_sources(&self) -> usize {
        self.slots.len()
    }

    /// The cached rows as `(row key, dependency row)` pairs, sorted by key —
    /// a deterministic snapshot for checkpointing (insertion order is a
    /// timing artifact under the shared oracle; key order is canonical).
    pub fn snapshot_rows(&self) -> Vec<(u64, Vec<f64>)> {
        let mut rows: Vec<(u64, Vec<f64>)> =
            self.slots.iter().map(|s| (s.key, s.row.to_vec())).collect();
        rows.sort_by_key(|&(k, _)| k);
        rows
    }

    /// Column `idx` of [`ProbeOracle::snapshot_rows`]: the rows a
    /// one-probe oracle for `probes[idx]` restores from, so a sampler
    /// reading one column checkpoints in the single-probe format.
    pub fn column_rows(&self, idx: usize) -> Vec<(u64, Vec<f64>)> {
        let mut rows: Vec<(u64, Vec<f64>)> =
            self.slots.iter().map(|s| (s.key, vec![s.row[idx]])).collect();
        rows.sort_by_key(|&(k, _)| k);
        rows
    }

    /// Restores a checkpointed cache: the given rows become the cache
    /// contents (referenced bits cleared — only meaningful under a capacity
    /// limit, which the samplers never set), and the counters resume from
    /// the checkpointed values, charged to column 0, so `stats()` /
    /// [`ProbeOracle::spd_passes`] continue as if the run had never stopped.
    pub fn restore_cache(&mut self, rows: Vec<(u64, Vec<f64>)>, stats: OracleStats, passes: u64) {
        debug_assert!(self.slots.is_empty(), "restore into a fresh oracle");
        for (key, row) in rows {
            let slot = Slot { key, row: row.into_boxed_slice(), referenced: false };
            self.index.insert(key, self.slots.len());
            self.slots.push(slot);
        }
        self.charges[0] = Charge { stats, passes };
    }
}

/// Thread-safe memoised dependency oracle shared by *parallel* consumers:
/// chain ensembles (many chains over one probe set share every density
/// evaluation) and the speculative prefetch pipeline (workers warm the
/// cache ahead of the chain thread).
///
/// Lookups take a read lock; misses compute the SPD pass *outside* any lock
/// (each caller thread supplies its own [`ViewCalculator`], usually checked
/// out of an [`mhbc_spd::SpdWorkspacePool`] bound to the same view) and
/// then insert under a short write lock. Duplicate concurrent computations
/// of the same row are possible but harmless (last write wins with equal
/// values — rows are a pure function of the view and the row key) — which
/// is why [`SharedProbeOracle::cached_sources`], not the miss counter, is
/// the deterministic "distinct SPD passes" figure the pipelined samplers
/// report.
pub struct SharedProbeOracle<'g> {
    view: SpdView<'g>,
    probes: Vec<Vertex>,
    probe_flag: Vec<bool>,
    cache: RwLock<HashMap<u64, Box<[f64]>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<'g> SharedProbeOracle<'g> {
    /// Shared oracle evaluating directly on `graph`.
    pub fn new(graph: &'g CsrGraph, probes: &[Vertex]) -> Self {
        Self::for_view(SpdView::direct(graph), probes)
    }

    /// Shared oracle evaluating through `view` (direct or reduced). With a
    /// reduction, every probe must be retained.
    pub fn for_view(view: SpdView<'g>, probes: &[Vertex]) -> Self {
        let probe_flag = validate_probes(&view, probes);
        SharedProbeOracle {
            view,
            probes: probes.to_vec(),
            probe_flag,
            cache: RwLock::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The probe set.
    pub fn probes(&self) -> &[Vertex] {
        &self.probes
    }

    /// The view this oracle evaluates against.
    pub fn view(&self) -> SpdView<'g> {
        self.view
    }

    /// Runs `f` over the cached (or freshly computed) row
    /// `δ_{source•}(probes)` without copying it out.
    pub fn with_deps<T>(
        &self,
        source: Vertex,
        calc: &mut ViewCalculator<'g>,
        f: impl FnOnce(&[f64]) -> T,
    ) -> T {
        let key = self.view.row_key(source, self.probe_flag[source as usize]);
        if let Some(row) = self.cache.read().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return f(row);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut row = Vec::with_capacity(self.probes.len());
        calc.dependency_on_many(source, &self.probes, &mut row);
        let out = f(&row);
        self.cache.write().insert(key, row.into_boxed_slice());
        out
    }

    /// `δ_{source•}(r)` for every probe, using `calc` for cache misses.
    pub fn deps(&self, source: Vertex, calc: &mut ViewCalculator<'g>) -> Vec<f64> {
        self.with_deps(source, calc, |row| row.to_vec())
    }

    /// Single-probe convenience (no allocation).
    pub fn dep(&self, source: Vertex, idx: usize, calc: &mut ViewCalculator<'g>) -> f64 {
        self.with_deps(source, calc, |row| row[idx])
    }

    /// Ensures `source`'s row is cached, computing it with `calc` if
    /// needed; returns whether a computation happened. This is the prefetch
    /// workers' entry point: it touches no statistics, so warming the cache
    /// never perturbs the chain-observable hit/miss history.
    pub fn warm(&self, source: Vertex, calc: &mut ViewCalculator<'g>) -> bool {
        let key = self.view.row_key(source, self.probe_flag[source as usize]);
        if self.cache.read().contains_key(&key) {
            return false;
        }
        let mut row = Vec::with_capacity(self.probes.len());
        calc.dependency_on_many(source, &self.probes, &mut row);
        self.cache.write().insert(key, row.into_boxed_slice());
        true
    }

    /// Cache statistics (aggregated over all threads).
    pub fn stats(&self) -> OracleStats {
        OracleStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Number of distinct dependency rows cached — the deterministic
    /// SPD-pass count for a run whose proposal set is fixed (see type docs).
    pub fn cached_sources(&self) -> usize {
        self.cache.read().len()
    }

    /// The cached rows as `(row key, dependency row)` pairs, sorted by key
    /// (see [`ProbeOracle::snapshot_rows`]). At a segment boundary of the
    /// speculative pipeline this set is deterministic: it equals the rows
    /// of every proposal consumed so far, whatever the thread count —
    /// workers never speculate past the committed iteration bound.
    pub fn snapshot_rows(&self) -> Vec<(u64, Vec<f64>)> {
        let cache = self.cache.read();
        let mut rows: Vec<(u64, Vec<f64>)> =
            cache.iter().map(|(&k, row)| (k, row.to_vec())).collect();
        rows.sort_by_key(|&(k, _)| k);
        rows
    }

    /// Restores a checkpointed cache (counterpart of
    /// [`ProbeOracle::restore_cache`] for the shared oracle).
    pub fn restore_cache(&self, rows: Vec<(u64, Vec<f64>)>, stats: OracleStats) {
        let mut cache = self.cache.write();
        debug_assert!(cache.is_empty(), "restore into a fresh oracle");
        for (key, row) in rows {
            cache.insert(key, row.into_boxed_slice());
        }
        self.hits.store(stats.hits, Ordering::Relaxed);
        self.misses.store(stats.misses, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhbc_graph::generators;
    use mhbc_graph::reduce::{reduce, ReduceLevel};
    use mhbc_spd::DependencyCalculator;

    #[test]
    fn caches_repeat_evaluations() {
        let g = generators::barbell(4, 2);
        let mut o = ProbeOracle::new(&g, &[4]);
        let first = o.dep(0, 0);
        let second = o.dep(0, 0);
        assert_eq!(first, second);
        assert_eq!(o.stats(), OracleStats { hits: 1, misses: 1 });
        assert_eq!(o.spd_passes(), 1);
    }

    #[test]
    fn values_match_direct_kernel() {
        let g = generators::barbell(4, 2);
        let probes = [0u32, 4, 5, 9];
        let mut o = ProbeOracle::new(&g, &probes);
        let mut calc = DependencyCalculator::new(&g);
        for src in 0..g.num_vertices() as Vertex {
            let row = o.deps(src).to_vec();
            for (i, &p) in probes.iter().enumerate() {
                assert_eq!(row[i], calc.dependency_on(&g, src, p), "src {src} probe {p}");
            }
        }
    }

    #[test]
    fn reduced_oracle_coalesces_equivalent_sources() {
        // Star: all leaves share a dependency row (one SPD pass covers
        // them), the centre has its own, and the probe leaf is isolated
        // from its twins by the probe exception.
        let g = generators::star(8);
        let red = reduce(&g, ReduceLevel::Full).unwrap();
        let view = SpdView::preprocessed(&g, &red);
        let probe = 0u32; // the centre (retained; leaves are pruned)
        assert!(red.is_retained(probe));
        let mut o = ProbeOracle::for_view(view, &[probe]);
        let mut reference = DependencyCalculator::new(&g);
        for v in 0..g.num_vertices() as Vertex {
            let got = o.dep(v, 0);
            let want = reference.dependency_on(&g, v, probe);
            assert!((got - want).abs() < 1e-12, "source {v}: {got} vs {want}");
        }
        // 8 sources evaluated, but leaves coalesce: centre + leaf class.
        assert_eq!(o.cached_sources(), 2);
        assert_eq!(o.stats().misses, 2);
        assert_eq!(o.stats().hits, 6);
    }

    #[test]
    #[should_panic(expected = "pruned by the reduction")]
    fn pruned_probes_are_rejected_at_construction() {
        let g = generators::lollipop(5, 3);
        let red = reduce(&g, ReduceLevel::Prune).unwrap();
        let _ = ProbeOracle::for_view(SpdView::preprocessed(&g, &red), &[7]);
    }

    #[test]
    fn capacity_limit_evicts_one_at_a_time() {
        let g = generators::cycle(10);
        let mut o = ProbeOracle::new(&g, &[0]).with_capacity_limit(3);
        for v in 0..9u32 {
            let _ = o.dep(v, 0);
        }
        assert_eq!(o.cached_sources(), 3, "ring stays full, never flushed");
        // Values still correct after evictions.
        let mut calc = DependencyCalculator::new(&g);
        assert_eq!(o.dep(7, 0), calc.dependency_on(&g, 7, 0));
    }

    #[test]
    fn second_chance_keeps_the_hot_working_set() {
        let g = generators::cycle(16);
        let mut o = ProbeOracle::new(&g, &[0]).with_capacity_limit(4);
        // Establish a hot pair {1, 2} and keep touching it while a stream
        // of one-shot sources (3..11) flows through the cache.
        let _ = o.dep(1, 0);
        let _ = o.dep(2, 0);
        for v in 3..11u32 {
            let _ = o.dep(v, 0);
            let _ = o.dep(1, 0);
            let _ = o.dep(2, 0);
        }
        let stats = o.stats();
        // Every re-touch of 1 and 2 must have been a hit: the CLOCK hand
        // recycles the unreferenced one-shot slots instead.
        assert_eq!(stats.hits, 2 * 8, "hot set evicted: {stats:?}");
        assert_eq!(stats.misses, 2 + 8);
        assert_eq!(o.cached_sources(), 4);
    }

    #[test]
    fn wholesale_flush_would_have_lost_the_hot_set() {
        // Documentation-by-test of the old behaviour's cost: with the
        // CLOCK policy the hit rate of a skewed access pattern stays high
        // even at a tiny capacity.
        let g = generators::cycle(32);
        let mut o = ProbeOracle::new(&g, &[0]).with_capacity_limit(2);
        for round in 0..50u32 {
            let _ = o.dep(0, 0); // hot
            let _ = o.dep(1 + (round % 30), 0); // cold stream
        }
        assert!(o.stats().hit_rate() > 0.45, "hit rate {:?}", o.stats());
    }

    #[test]
    fn shared_oracle_matches_direct_kernel() {
        let g = generators::barbell(4, 2);
        let probes = [0u32, 4, 9];
        let shared = SharedProbeOracle::new(&g, &probes);
        let mut calc = ViewCalculator::new(SpdView::direct(&g));
        let mut reference = DependencyCalculator::new(&g);
        for src in 0..g.num_vertices() as Vertex {
            let row = shared.deps(src, &mut calc);
            for (i, &p) in probes.iter().enumerate() {
                assert_eq!(row[i], reference.dependency_on(&g, src, p));
            }
        }
        // Second sweep is pure cache hits.
        for src in 0..g.num_vertices() as Vertex {
            let _ = shared.deps(src, &mut calc);
        }
        let stats = shared.stats();
        assert_eq!(stats.misses, g.num_vertices() as u64);
        assert_eq!(stats.hits, g.num_vertices() as u64);
        assert_eq!(shared.cached_sources(), g.num_vertices());
    }

    #[test]
    fn shared_reduced_oracle_coalesces_rows() {
        let g = generators::star(8);
        let red = reduce(&g, ReduceLevel::Full).unwrap();
        let view = SpdView::preprocessed(&g, &red);
        let shared = SharedProbeOracle::for_view(view, &[0]);
        let mut calc = ViewCalculator::new(view);
        for v in 0..g.num_vertices() as Vertex {
            let _ = shared.dep(v, 0, &mut calc);
        }
        assert_eq!(shared.cached_sources(), 2, "centre + coalesced leaf class");
    }

    #[test]
    fn warm_populates_without_touching_stats() {
        let g = generators::barbell(4, 1);
        let shared = SharedProbeOracle::new(&g, &[4]);
        let mut calc = ViewCalculator::new(SpdView::direct(&g));
        assert!(shared.warm(0, &mut calc));
        assert!(!shared.warm(0, &mut calc), "second warm is a no-op");
        assert_eq!(shared.stats(), OracleStats::default());
        // The chain's subsequent read is a hit.
        let _ = shared.dep(0, 0, &mut calc);
        assert_eq!(shared.stats(), OracleStats { hits: 1, misses: 0 });
    }

    #[test]
    fn shared_oracle_concurrent_consistency() {
        let g = generators::barbell(6, 2);
        let shared = SharedProbeOracle::new(&g, &[6]);
        let n = g.num_vertices() as Vertex;
        crossbeam::thread::scope(|scope| {
            for t in 0..4 {
                let shared = &shared;
                let g = &g;
                scope.spawn(move |_| {
                    let mut calc = ViewCalculator::new(SpdView::direct(g));
                    let mut reference = DependencyCalculator::new(g);
                    for i in 0..n {
                        let v = (i + t * 3) % n;
                        let got = shared.dep(v, 0, &mut calc);
                        assert_eq!(got, reference.dependency_on(g, v, 6));
                    }
                });
            }
        })
        .expect("threads joined");
        assert_eq!(shared.cached_sources(), g.num_vertices());
    }

    #[test]
    fn lookups_and_passes_are_charged_to_the_asking_column() {
        let g = generators::barbell(4, 2);
        let probes = [4u32, 5];
        let mut o = ProbeOracle::new(&g, &probes);
        let _ = o.dep(0, 0); // column 0 computes source 0's row
        let _ = o.dep(0, 1); // column 1 reuses it
        let _ = o.dep(1, 1);
        let _ = o.dep(1, 1);
        assert_eq!(o.column_stats(0), OracleStats { hits: 0, misses: 1 });
        assert_eq!(o.column_stats(1), OracleStats { hits: 2, misses: 1 });
        assert_eq!((o.column_passes(0), o.column_passes(1)), (1, 1));
        assert_eq!(o.stats(), OracleStats { hits: 2, misses: 2 });
        assert_eq!(o.spd_passes(), 2);
        // A column's snapshot is what a one-probe oracle would cache.
        let mut single = ProbeOracle::new(&g, &[5]);
        let _ = single.dep(0, 0);
        let _ = single.dep(1, 0);
        assert_eq!(o.column_rows(1), single.snapshot_rows());
    }

    #[test]
    fn hit_rate_reporting() {
        let g = generators::path(5);
        let mut o = ProbeOracle::new(&g, &[2]);
        assert_eq!(o.stats().hit_rate(), 0.0);
        let _ = o.dep(0, 0);
        let _ = o.dep(0, 0);
        let _ = o.dep(0, 0);
        assert!((o.stats().hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }
}
