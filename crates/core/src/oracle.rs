//! Memoised dependency-score evaluation.
//!
//! The Metropolis–Hastings chains revisit states: on a graph with `n`
//! vertices, a `T`-step chain proposes at most `T + 1` distinct sources but
//! typically far fewer (the stationary distribution concentrates on
//! high-dependency sources). Each distinct source costs one SPD pass
//! (`O(|E|)`); caching the result turns revisits into hash lookups.
//!
//! A cached row holds the dependency of a source on *every* probe at once —
//! a single backward accumulation already produces `δ_{v•}(x)` for every
//! `x` (Eq 4), so the per-probe marginal cost is zero. The joint-space
//! sampler reads whole rows; single-space chains read one column each.
//!
//! The oracle evaluates through an [`SpdView`] — a graph together with
//! (optionally) its reduction from `mhbc_graph::reduce`. With a reduction
//! active, cache entries are keyed by [`SpdView::row_key`] rather than by
//! source vertex: structurally equivalent sources (twins of equal pendant
//! weight; pendant vertices of the same attachment and branch shape) have
//! *identical* dependency rows, so a whole equivalence class costs one SPD
//! pass over the reduced CSR instead of one per member. Direct views key by
//! vertex id, which reproduces the pre-reduction behaviour exactly.
//!
//! One [`ProbeOracle`] serves every consumer of a run, on one thread or
//! many: the multi-probe scheduler gives every probe's chain one column of
//! a single oracle over the whole probe set, chain ensembles share one
//! oracle across their chain threads, and prefetch workers
//! ([`crate::pipeline`]) [`ProbeOracle::warm`] the rows a chain is about to
//! read. Lookups take a read lock. A miss first *claims* its row key in a
//! set of rows in flight, then computes the SPD pass outside any lock, with
//! a workspace checked out of the oracle's own [`SpdWorkspacePool`], and
//! inserts under a short write lock. A lookup that misses on a row another
//! thread has claimed waits for it to land and counts a hit; a warm of a
//! claimed row returns at once. Every row is therefore computed exactly
//! once, whatever the thread count. A claim is released on drop, so a
//! thread that unwinds mid-pass wakes its waiters, and one of them computes
//! the row instead.
//!
//! Each lookup is charged to the column whose consumer asked, and an SPD
//! pass to the column whose lookup or warm *inserted* the row, so
//! per-column figures sum to the totals and [`ProbeOracle::spd_passes`]
//! equals the number of distinct rows (and of computations) at every thread
//! count. Only the hit/miss split of a prefetched run depends on timing,
//! and checkpoint images leave it out (see [`ProbeOracle::snapshot`]).

use mhbc_graph::{CsrGraph, Vertex};
use mhbc_spd::{SpdView, SpdWorkspacePool};
use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, PoisonError};

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

/// Lookups and SPD passes charged to one probe column.
#[derive(Debug, Default)]
struct Charge {
    hits: AtomicU64,
    misses: AtomicU64,
    passes: AtomicU64,
}

impl Charge {
    fn stats(&self) -> OracleStats {
        OracleStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

/// Memoises `δ_{source•}(r)` for a fixed probe set, keyed by the source's
/// [`SpdView::row_key`] (equal to the vertex id on direct views). Shareable
/// across threads (see the module docs).
pub struct ProbeOracle<'g> {
    view: SpdView<'g>,
    probes: Vec<Vertex>,
    probe_flag: Vec<bool>,
    pool: SpdWorkspacePool<'g>,
    rows: RwLock<HashMap<u64, Box<[f64]>>>,
    /// Row keys some thread is computing now; taken before `rows` whenever
    /// both are held.
    in_flight: Mutex<HashSet<u64>>,
    /// Signalled whenever a claim is released.
    landed: Condvar,
    #[cfg(test)]
    computations: AtomicU64,
    #[cfg(test)]
    waits: AtomicU64,
    /// Per-column counters (module docs). Passes are counted here rather
    /// than read off the calculators so a restored checkpoint's count keeps
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
            pool: SpdWorkspacePool::for_view(view),
            rows: RwLock::new(HashMap::new()),
            in_flight: Mutex::new(HashSet::new()),
            landed: Condvar::new(),
            #[cfg(test)]
            computations: AtomicU64::new(0),
            #[cfg(test)]
            waits: AtomicU64::new(0),
            charges: probes.iter().map(|_| Charge::default()).collect(),
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

    fn key(&self, source: Vertex) -> u64 {
        self.view.row_key(source, self.probe_flag[source as usize])
    }

    /// Runs `f` over the cached (or freshly computed) row
    /// `δ_{source•}(probes)` without copying it out; the lookup, and the
    /// SPD pass a miss inserts, are charged to column `col`. A row another
    /// thread is computing is waited for, and counts as a hit.
    pub fn with_deps<T>(&self, source: Vertex, col: usize, f: impl FnOnce(&[f64]) -> T) -> T {
        let key = self.key(source);
        let charge = &self.charges[col];
        {
            let rows = self.rows.read();
            if let Some(row) = rows.get(&key) {
                charge.hits.fetch_add(1, Ordering::Relaxed);
                return f(row);
            }
        }
        match self.claim(key, true) {
            Some(claim) => {
                charge.misses.fetch_add(1, Ordering::Relaxed);
                let row = self.compute(source);
                let out = f(&row);
                self.insert(claim, row, col);
                out
            }
            None => {
                charge.hits.fetch_add(1, Ordering::Relaxed);
                f(&self.rows.read()[&key])
            }
        }
    }

    /// `δ_{source•}(r)` for every probe `r`, cached; the lookup is charged
    /// to column 0 (a joint-space chain reads every column at once).
    pub fn deps(&self, source: Vertex) -> Vec<f64> {
        self.with_deps(source, 0, |row| row.to_vec())
    }

    /// `δ_{source•}(probes[idx])`, cached; the lookup, and the SPD pass a
    /// miss inserts, are charged to column `idx`.
    pub fn dep(&self, source: Vertex, idx: usize) -> f64 {
        self.with_deps(source, idx, |row| row[idx])
    }

    /// Ensures `source`'s row is cached, computing it if needed; returns
    /// whether this call inserted it (and charged its SPD pass to column
    /// `col`). The prefetch workers' entry point: it counts no lookup, so
    /// warming never changes how many lookups a chain's column records, and
    /// it never waits — a row another thread is computing returns `false`
    /// at once.
    pub fn warm(&self, source: Vertex, col: usize) -> bool {
        let key = self.key(source);
        if self.rows.read().contains_key(&key) {
            return false;
        }
        let Some(claim) = self.claim(key, false) else {
            return false;
        };
        let row = self.compute(source);
        self.insert(claim, row, col);
        true
    }

    /// Claims `key` for computation. Returns `None` once the row is cached
    /// — at once, or (with `wait`) after the thread holding its claim
    /// inserts it — and also, without `wait`, while another thread holds
    /// the claim.
    fn claim(&self, key: u64, wait: bool) -> Option<Claim<'_, 'g>> {
        let mut busy = self.in_flight.lock();
        loop {
            if self.rows.read().contains_key(&key) {
                return None;
            }
            if busy.insert(key) {
                return Some(Claim { oracle: self, key });
            }
            if !wait {
                return None;
            }
            #[cfg(test)]
            self.waits.fetch_add(1, Ordering::Relaxed);
            busy = self.landed.wait(busy).unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn compute(&self, source: Vertex) -> Box<[f64]> {
        #[cfg(test)]
        self.computations.fetch_add(1, Ordering::Relaxed);
        let mut row = Vec::with_capacity(self.probes.len());
        self.pool.checkout().dependency_on_many(source, &self.probes, &mut row);
        row.into_boxed_slice()
    }

    /// Inserts the row `claim` was computed for and charges its pass to
    /// `col`; dropping the claim afterwards wakes the threads waiting on it.
    fn insert(&self, claim: Claim<'_, 'g>, row: Box<[f64]>, col: usize) {
        let mut rows = self.rows.write();
        let fresh = rows.insert(claim.key, row).is_none();
        debug_assert!(fresh, "only the claim holder inserts a row");
        // Charged under the lock: a thread that sees the row (it takes the
        // lock to look) also sees its pass.
        self.charges[col].passes.fetch_add(1, Ordering::Relaxed);
        // Release the rows before the claim: a claimer reads them while
        // holding the in-flight set.
        drop(rows);
        drop(claim);
    }

    /// Cache statistics, summed over all columns.
    pub fn stats(&self) -> OracleStats {
        self.charges.iter().map(Charge::stats).fold(OracleStats::default(), |acc, s| OracleStats {
            hits: acc.hits + s.hits,
            misses: acc.misses + s.misses,
        })
    }

    /// Number of SPD passes performed — the rows inserted, counted across
    /// checkpoint/resume boundaries.
    pub fn spd_passes(&self) -> u64 {
        (0..self.charges.len()).map(|i| self.column_passes(i)).sum()
    }

    /// Cache statistics charged to column `idx`.
    pub fn column_stats(&self, idx: usize) -> OracleStats {
        self.charges[idx].stats()
    }

    /// SPD passes charged to column `idx`: the rows its lookups and warms
    /// inserted.
    pub fn column_passes(&self, idx: usize) -> u64 {
        self.charges[idx].passes.load(Ordering::Relaxed)
    }

    /// Number of distinct dependency rows currently cached.
    pub fn cached_sources(&self) -> usize {
        self.rows.read().len()
    }

    /// The checkpoint image of the cache: `(SPD passes, lookup statistics,
    /// (row key, dependency row) pairs)`. For `Some(idx)`, column `idx`'s
    /// charges and entries — what a one-probe oracle for `probes[idx]`
    /// restores from, so a sampler reading one column checkpoints in the
    /// single-probe format; for `None`, the totals and whole rows. Rows are
    /// sorted by key (insertion order is a timing artifact under
    /// prefetching), and passes and rows are read under one lock, so a
    /// concurrent warm cannot add a row whose pass the image lacks.
    ///
    /// The image records `misses = passes` and `hits = lookups − passes`:
    /// the hit/miss split of a prefetched run depends on which thread
    /// computed a row, but lookups and passes do not, so images are equal
    /// at every thread count. A sequential run misses exactly when it
    /// inserts, so its image keeps its own split.
    pub fn snapshot(&self, col: Option<usize>) -> (u64, OracleStats, Vec<(u64, Vec<f64>)>) {
        let rows = self.rows.read();
        let (passes, stats) = match col {
            Some(idx) => (self.column_passes(idx), self.column_stats(idx)),
            None => (self.spd_passes(), self.stats()),
        };
        let lookups = stats.hits + stats.misses;
        let stats = OracleStats { hits: lookups.saturating_sub(passes), misses: passes };
        let mut image: Vec<(u64, Vec<f64>)> = rows
            .iter()
            .map(|(&k, row)| (k, col.map_or_else(|| row.to_vec(), |idx| vec![row[idx]])))
            .collect();
        image.sort_by_key(|&(k, _)| k);
        (passes, stats, image)
    }

    /// Restores a checkpointed cache: the given rows (each one entry per
    /// probe — the checkpoint decoder checks) become the cache contents,
    /// and the counters resume from the checkpointed values, charged to
    /// column 0, so `stats()` / [`ProbeOracle::spd_passes`] continue as if
    /// the run had never stopped.
    pub fn restore_cache(&mut self, rows: Vec<(u64, Vec<f64>)>, stats: OracleStats, passes: u64) {
        let cache = self.rows.get_mut();
        debug_assert!(cache.is_empty(), "restore into a fresh oracle");
        for (key, row) in rows {
            assert_eq!(row.len(), self.probes.len(), "a cached row holds one entry per probe");
            cache.insert(key, row.into_boxed_slice());
        }
        let charge = &mut self.charges[0];
        *charge.hits.get_mut() = stats.hits;
        *charge.misses.get_mut() = stats.misses;
        *charge.passes.get_mut() = passes;
    }
}

/// A row key claimed for computation; released (and its waiters woken)
/// on drop, including when the computing thread unwinds.
struct Claim<'a, 'g> {
    oracle: &'a ProbeOracle<'g>,
    key: u64,
}

impl Drop for Claim<'_, '_> {
    fn drop(&mut self) {
        self.oracle.in_flight.lock().remove(&self.key);
        self.oracle.landed.notify_all();
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
        let o = ProbeOracle::new(&g, &[4]);
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
        let o = ProbeOracle::new(&g, &probes);
        let mut calc = DependencyCalculator::new(&g);
        for src in 0..g.num_vertices() as Vertex {
            let row = o.deps(src);
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
        let o = ProbeOracle::for_view(view, &[probe]);
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
    fn warm_populates_without_touching_stats() {
        let g = generators::barbell(4, 1);
        let o = ProbeOracle::new(&g, &[4]);
        assert!(o.warm(0, 0));
        assert!(!o.warm(0, 0), "second warm is a no-op");
        assert_eq!(o.stats(), OracleStats::default());
        assert_eq!(o.spd_passes(), 1, "the inserting warm is charged the pass");
        // The chain's subsequent read is a hit.
        let _ = o.dep(0, 0);
        assert_eq!(o.stats(), OracleStats { hits: 1, misses: 0 });
        assert_eq!(o.spd_passes(), 1);
    }

    #[test]
    fn shared_oracle_concurrent_consistency() {
        // Four threads, released together, read and warm overlapping
        // sources across three columns. Whatever the interleaving, every
        // row is inserted once: passes = distinct rows = cached rows, the
        // per-column charges add up to the totals, and every cached row is
        // bit-equal to a fresh calculator's.
        let g = generators::barbell(6, 2);
        let probes = [6u32, 7, 2];
        let o = ProbeOracle::new(&g, &probes);
        let n = g.num_vertices() as Vertex;
        let lookups_per_thread = 2 * n as u64;
        let start = std::sync::Barrier::new(4);
        crossbeam::thread::scope(|scope| {
            for t in 0..4u32 {
                let (o, start) = (&o, &start);
                scope.spawn(move |_| {
                    start.wait();
                    for i in 0..n {
                        let v = (i * 5 + t * 3) % n;
                        let col = ((i + t) % 3) as usize;
                        let _ = o.warm((v + 1) % n, col);
                        let _ = o.dep(v, col);
                        let _ = o.with_deps((v + 2) % n, col, |row| row[0]);
                    }
                });
            }
        })
        .expect("threads joined");
        assert_eq!(o.cached_sources(), g.num_vertices());
        assert_eq!(o.spd_passes(), g.num_vertices() as u64);
        let stats = o.stats();
        assert_eq!(stats.hits + stats.misses, 4 * lookups_per_thread);
        let cols = 0..probes.len();
        assert_eq!(cols.clone().map(|c| o.column_passes(c)).sum::<u64>(), o.spd_passes());
        assert_eq!(cols.clone().map(|c| o.column_stats(c).hits).sum::<u64>(), stats.hits);
        assert_eq!(cols.map(|c| o.column_stats(c).misses).sum::<u64>(), stats.misses);
        let mut reference = DependencyCalculator::new(&g);
        for (key, row) in o.snapshot(None).2 {
            let want: Vec<f64> =
                probes.iter().map(|&p| reference.dependency_on(&g, key as Vertex, p)).collect();
            let bits = |r: &[f64]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&row), bits(&want), "source {key}");
        }
        // Claims make every insert a computation and every computation an
        // insert: no row was computed twice.
        assert_eq!(o.computations.load(Ordering::Relaxed), o.spd_passes());
    }

    #[test]
    fn lookup_waits_on_a_claimed_row_and_computes_it_when_the_claim_is_dropped() {
        let g = generators::barbell(4, 2);
        let o = ProbeOracle::new(&g, &[4]);
        let claim = o.claim(o.key(0), true).expect("nobody else holds the key");
        crossbeam::thread::scope(|scope| {
            let o = &o;
            let waiter = scope.spawn(move |_| o.dep(0, 0));
            // The waiter counts its wait while holding the in-flight set,
            // which the claim's release needs: once the count shows, the
            // release below can only reach a thread already waiting.
            while o.waits.load(Ordering::Relaxed) == 0 {
                std::thread::yield_now();
            }
            // Released without an insert, as when the computing thread
            // unwinds: the waiter claims the row and computes it itself.
            drop(claim);
            let d = waiter.join().expect("waiter joined");
            assert_eq!(d, DependencyCalculator::new(&g).dependency_on(&g, 0, 4));
        })
        .expect("threads joined");
        assert_eq!(o.computations.load(Ordering::Relaxed), 1);
        assert_eq!(o.spd_passes(), 1);
        assert_eq!(o.stats(), OracleStats { hits: 0, misses: 1 });
    }

    #[test]
    fn warm_of_a_claimed_row_returns_at_once() {
        let g = generators::barbell(4, 2);
        let o = ProbeOracle::new(&g, &[4]);
        let claim = o.claim(o.key(0), true).expect("nobody else holds the key");
        // Same thread: a warm that waited would never return.
        assert!(!o.warm(0, 0));
        assert_eq!(o.computations.load(Ordering::Relaxed), 0);
        assert_eq!((o.spd_passes(), o.cached_sources()), (0, 0));
        drop(claim);
        assert!(o.warm(0, 0));
        assert_eq!(o.computations.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn snapshot_counts_every_pass_as_a_miss() {
        // A warmed row read once: one lookup (a hit) and one pass. The
        // image records the split a sequential run would have had.
        let g = generators::barbell(4, 2);
        let o = ProbeOracle::new(&g, &[4]);
        assert!(o.warm(0, 0));
        let _ = o.dep(0, 0);
        let _ = o.dep(1, 0);
        let _ = o.dep(1, 0);
        assert_eq!(o.stats(), OracleStats { hits: 2, misses: 1 });
        let (passes, stats, _) = o.snapshot(None);
        assert_eq!((passes, stats), (2, OracleStats { hits: 1, misses: 2 }));
        assert_eq!(o.snapshot(Some(0)).1, stats);
    }

    #[test]
    fn shared_oracle_matches_direct_kernel() {
        let g = generators::barbell(4, 2);
        let probes = [0u32, 4, 9];
        let o = ProbeOracle::new(&g, &probes);
        let mut reference = DependencyCalculator::new(&g);
        for src in 0..g.num_vertices() as Vertex {
            o.with_deps(src, 0, |row| {
                for (i, &p) in probes.iter().enumerate() {
                    assert_eq!(row[i], reference.dependency_on(&g, src, p));
                }
            });
        }
        // Second sweep is pure cache hits.
        for src in 0..g.num_vertices() as Vertex {
            let _ = o.deps(src);
        }
        let n = g.num_vertices() as u64;
        assert_eq!(o.stats(), OracleStats { hits: n, misses: n });
        assert_eq!(o.cached_sources() as u64, n);
    }

    #[test]
    fn shared_reduced_oracle_coalesces_rows() {
        // Warming every star vertex through the reduction inserts the
        // centre's row and one row for the whole leaf class.
        let g = generators::star(8);
        let red = reduce(&g, ReduceLevel::Full).unwrap();
        let o = ProbeOracle::for_view(SpdView::preprocessed(&g, &red), &[0]);
        let inserted = (0..g.num_vertices() as Vertex).filter(|&v| o.warm(v, 0)).count();
        assert_eq!(inserted, 2, "centre + coalesced leaf class");
        assert_eq!(o.cached_sources(), 2);
        assert_eq!(o.spd_passes(), 2);
    }

    #[test]
    fn lookups_and_passes_are_charged_to_the_asking_column() {
        let g = generators::barbell(4, 2);
        let probes = [4u32, 5];
        let o = ProbeOracle::new(&g, &probes);
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
        let single = ProbeOracle::new(&g, &[5]);
        let _ = single.dep(0, 0);
        let _ = single.dep(1, 0);
        assert_eq!(o.snapshot(Some(1)).2, single.snapshot(None).2);
    }

    #[test]
    fn hit_rate_reporting() {
        let g = generators::path(5);
        let o = ProbeOracle::new(&g, &[2]);
        assert_eq!(o.stats().hit_rate(), 0.0);
        let _ = o.dep(0, 0);
        let _ = o.dep(0, 0);
        let _ = o.dep(0, 0);
        assert!((o.stats().hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }
}
