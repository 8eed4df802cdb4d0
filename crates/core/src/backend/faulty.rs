//! Deterministic fault injection at the backend seam.
//!
//! [`FaultInjectingBackend`] wraps any [`SqlBackend`] and injects the
//! failure modes a networked engine exhibits, on a **seeded, deterministic
//! schedule** — the same seed replays the same fault sequence, so every
//! chaos-test failure is reproducible:
//!
//! * **Connection drops** ([`Fault::ConnectionDrop`]) — returns
//!   [`BackendError::ConnectionLost`] and wipes every statement this
//!   wrapper vended from the inner backend's registry, exactly as a real
//!   server forgets session state when the socket dies.
//! * **Statement eviction** ([`Fault::EvictStatement`]) — closes the
//!   targeted statement server-side and returns
//!   [`BackendError::UnknownStatement`], the DISCARD/restart/LRU-eviction
//!   case the session layer must re-prepare through.
//! * **Transient failures** ([`Fault::Transient`]) — retryable one-off
//!   errors (the service's retry loop absorbs these).
//! * **Timeouts** ([`Fault::Timeout`]) — non-retryable budget exhaustion.
//!
//! Faults fire at the *dispatch* surface (`exec_timed`, `prepare`,
//! `execute_prepared`) — and, when [`FaultConfig::fault_catalog`] is on,
//! at `table_entry`, which is what a cold guard build reads, so its
//! failure paths can be exercised too. UDF
//! installation is never faulted, nor is loading fixtures through
//! [`FaultInjectingBackend::inner_mut`]: tests need a reliable way to
//! build them.
//!
//! Two scheduling modes compose:
//!
//! * a **scripted queue** ([`FaultInjectingBackend::script`]) consumed
//!   first — unit tests inject exact sequences ("one drop, then two
//!   transients");
//! * a **random schedule** driven by [`FaultConfig::fault_rate`] and the
//!   weighted fault mix, from an inline SplitMix64 stream seeded by
//!   [`FaultConfig::seed`].
//!
//! [`FaultInjectingBackend::set_enabled`] turns injection off wholesale —
//! chaos tests use it to enter a recovery phase and assert the service
//! heals (and leaks nothing) once the faults stop.

use super::{BackendError, BackendResult, SqlBackend, StatementId};
use minidb::exec::{ExecOptions, QueryResult};
use minidb::plan::SelectQuery;
use minidb::stats::ExecStats;
use minidb::udf::Udf;
use minidb::{Database, TableEntry};
use parking_lot::Mutex;
use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One injectable fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Drop the connection: wipe all vended statements, return
    /// [`BackendError::ConnectionLost`].
    ConnectionDrop,
    /// Evict the targeted statement server-side, return
    /// [`BackendError::UnknownStatement`]. At injection points with no
    /// statement id (plain `exec`, `prepare`) this degrades to a
    /// transient failure.
    EvictStatement,
    /// Return a retryable [`BackendError::Transient`].
    Transient,
    /// Return a non-retryable [`BackendError::Timeout`].
    Timeout,
}

/// Configuration of the injected fault schedule. Deterministic: identical
/// config + identical call sequence ⇒ identical faults.
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// Seed of the SplitMix64 stream driving random injection.
    pub seed: u64,
    /// Probability (0.0–1.0) that an injectable call faults.
    pub fault_rate: f64,
    /// Relative weight of [`Fault::ConnectionDrop`] in the random mix.
    pub drop_weight: u32,
    /// Relative weight of [`Fault::EvictStatement`].
    pub evict_weight: u32,
    /// Relative weight of [`Fault::Transient`].
    pub transient_weight: u32,
    /// Relative weight of [`Fault::Timeout`].
    pub timeout_weight: u32,
    /// Added latency per injectable call (slow-backend simulation).
    pub latency: Option<Duration>,
    /// Also inject at `table_entry` (catalog reads feed guard generation
    /// and fragment compilation; off by default so only the dispatch path
    /// faults).
    pub fault_catalog: bool,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0,
            fault_rate: 0.0,
            drop_weight: 1,
            evict_weight: 1,
            transient_weight: 2,
            timeout_weight: 0,
            latency: None,
            fault_catalog: false,
        }
    }
}

impl FaultConfig {
    /// A seeded config with the given random fault rate and the default
    /// fault mix.
    pub fn seeded(seed: u64, fault_rate: f64) -> Self {
        FaultConfig {
            seed,
            fault_rate,
            ..FaultConfig::default()
        }
    }
}

/// Injection counters (observability; chaos tests assert faults actually
/// fired and recovery balanced them out).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Connection drops injected.
    pub drops: u64,
    /// Statement evictions injected.
    pub evictions: u64,
    /// Transient failures injected.
    pub transients: u64,
    /// Timeouts injected.
    pub timeouts: u64,
}

impl FaultCounts {
    /// Total faults injected.
    pub fn total(&self) -> u64 {
        self.drops + self.evictions + self.transients + self.timeouts
    }
}

/// SplitMix64 — tiny, seedable, and good enough to schedule faults. Kept
/// inline so the core crate stays free of an RNG dependency.
#[derive(Debug)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[derive(Debug)]
struct FaultState {
    rng: SplitMix64,
    config: FaultConfig,
    /// Scripted faults, consumed before any random draw.
    script: VecDeque<Fault>,
    /// Statement ids this wrapper vended and has not seen closed — the
    /// "server-side session state" a connection drop destroys.
    vended: HashSet<StatementId>,
}

/// A [`SqlBackend`] wrapper that injects scheduled faults; see the
/// [module docs](self).
#[derive(Debug)]
pub struct FaultInjectingBackend<B> {
    inner: B,
    state: Mutex<FaultState>,
    enabled: AtomicBool,
    drops: AtomicU64,
    evictions: AtomicU64,
    transients: AtomicU64,
    timeouts: AtomicU64,
    /// Calls that passed through an injection point (faulted or not).
    injectable_calls: AtomicU64,
}

impl<B: SqlBackend> FaultInjectingBackend<B> {
    /// Wrap `inner` under `config`. With the default config (rate 0, no
    /// script) the wrapper is a transparent pass-through — the warm-path
    /// overhead `bench faults --quick` gates on.
    pub fn new(inner: B, config: FaultConfig) -> Self {
        FaultInjectingBackend {
            inner,
            state: Mutex::new(FaultState {
                rng: SplitMix64(config.seed),
                config,
                script: VecDeque::new(),
                vended: HashSet::new(),
            }),
            enabled: AtomicBool::new(true),
            drops: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            transients: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            injectable_calls: AtomicU64::new(0),
        }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// The wrapped backend, mutably (data loading).
    pub fn inner_mut(&mut self) -> &mut B {
        &mut self.inner
    }

    /// Queue exact faults to fire on the next injectable calls, ahead of
    /// any random schedule. Unit tests script precise sequences with this.
    pub fn script(&self, faults: impl IntoIterator<Item = Fault>) {
        self.state.lock().script.extend(faults);
    }

    /// Enable or disable all injection (script and random alike). Chaos
    /// tests disable faults to run their recovery/leak-check phase.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::SeqCst);
    }

    /// Injection counters so far.
    pub fn fault_counts(&self) -> FaultCounts {
        FaultCounts {
            drops: self.drops.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            transients: self.transients.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
        }
    }

    /// Calls that passed an injection point (faulted or not).
    pub fn injectable_calls(&self) -> u64 {
        self.injectable_calls.load(Ordering::Relaxed)
    }

    /// Statement ids vended and still live from this wrapper's view.
    pub fn vended_statements(&self) -> usize {
        self.state.lock().vended.len()
    }

    /// Decide whether this call faults, and with what. Scripted faults
    /// first; then a weighted random draw at `fault_rate`.
    fn draw(st: &mut FaultState) -> Option<Fault> {
        if let Some(f) = st.script.pop_front() {
            return Some(f);
        }
        if st.config.fault_rate <= 0.0 || st.rng.next_f64() >= st.config.fault_rate {
            return None;
        }
        let (dw, ew, tw, ow) = (
            st.config.drop_weight,
            st.config.evict_weight,
            st.config.transient_weight,
            st.config.timeout_weight,
        );
        let total = dw + ew + tw + ow;
        if total == 0 {
            return None;
        }
        let mut pick = (st.rng.next_u64() % u64::from(total)) as u32;
        for (fault, weight) in [
            (Fault::ConnectionDrop, dw),
            (Fault::EvictStatement, ew),
            (Fault::Transient, tw),
            (Fault::Timeout, ow),
        ] {
            if pick < weight {
                return Some(fault);
            }
            pick -= weight;
        }
        None
    }

    /// Simulated per-call latency, slept outside the state lock.
    fn add_latency(&self) {
        let latency = self.state.lock().config.latency;
        if let Some(d) = latency {
            std::thread::sleep(d);
        }
    }

    /// Apply a drawn fault at an injection point. `statement` carries the
    /// id in flight at `execute_prepared`, so evictions can target it.
    fn fire(
        &self,
        st: &mut FaultState,
        fault: Fault,
        statement: Option<StatementId>,
    ) -> BackendError {
        match fault {
            Fault::ConnectionDrop => {
                // The server forgets the session: every statement this
                // wrapper vended is closed on the inner backend (so its
                // open-statement count drops — leak checks see a clean
                // slate) and the registry view is cleared.
                for id in st.vended.drain() {
                    self.inner.close_prepared(id);
                }
                self.drops.fetch_add(1, Ordering::Relaxed);
                BackendError::ConnectionLost("injected connection drop".into())
            }
            Fault::EvictStatement => match statement {
                Some(id) => {
                    self.inner.close_prepared(id);
                    st.vended.remove(&id);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                    BackendError::UnknownStatement(id)
                }
                // No statement in flight — degrade to a transient fault
                // so the schedule still produces a failure here.
                None => {
                    self.transients.fetch_add(1, Ordering::Relaxed);
                    BackendError::Transient("injected fault (eviction off-target)".into())
                }
            },
            Fault::Transient => {
                self.transients.fetch_add(1, Ordering::Relaxed);
                BackendError::Transient("injected transient failure".into())
            }
            Fault::Timeout => {
                self.timeouts.fetch_add(1, Ordering::Relaxed);
                BackendError::Timeout
            }
        }
    }

    /// The common prologue of every injection point. Drawing a fault and
    /// applying it are one critical section: a call that draws after a
    /// connection drop finds its statement already closed, never still
    /// open because the drop had been drawn but not yet carried out.
    fn inject(&self, statement: Option<StatementId>) -> Option<BackendError> {
        self.injectable_calls.fetch_add(1, Ordering::Relaxed);
        self.add_latency();
        if !self.enabled.load(Ordering::SeqCst) {
            return None;
        }
        let mut st = self.state.lock();
        let fault = Self::draw(&mut st)?;
        Some(self.fire(&mut st, fault, statement))
    }
}

impl<B: SqlBackend> SqlBackend for FaultInjectingBackend<B> {
    fn name(&self) -> &'static str {
        // Keep the inner name: bench labels and oracle plumbing identify
        // the engine, not the chaos harness around it.
        self.inner.name()
    }

    fn exec_timed(
        &self,
        query: &SelectQuery,
        opts: &ExecOptions,
    ) -> (BackendResult<QueryResult>, ExecStats) {
        if let Some(e) = self.inject(None) {
            return (Err(e), ExecStats::default());
        }
        self.inner.exec_timed(query, opts)
    }

    fn table_entry(&self, name: &str) -> BackendResult<&TableEntry> {
        if self.state.lock().config.fault_catalog {
            if let Some(e) = self.inject(None) {
                return Err(e);
            }
        }
        self.inner.table_entry(name)
    }

    fn has_relation(&self, name: &str) -> bool {
        self.inner.has_relation(name)
    }

    fn install_udf(&mut self, name: &str, udf: Arc<dyn Udf>) {
        self.inner.install_udf(name, udf)
    }

    fn prepare(&self, query: &SelectQuery) -> BackendResult<StatementId> {
        if let Some(e) = self.inject(None) {
            return Err(e);
        }
        let id = self.inner.prepare(query)?;
        self.state.lock().vended.insert(id);
        Ok(id)
    }

    fn execute_prepared(&self, id: StatementId, opts: &ExecOptions) -> BackendResult<QueryResult> {
        if let Some(e) = self.inject(Some(id)) {
            return Err(e);
        }
        self.inner.execute_prepared(id, opts)
    }

    fn close_prepared(&self, id: StatementId) {
        self.state.lock().vended.remove(&id);
        self.inner.close_prepared(id)
    }

    fn minidb(&self) -> Option<&Database> {
        self.inner.minidb()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minidb::value::{DataType, Value};
    use minidb::{DbProfile, TableSchema};

    fn tiny() -> Database {
        let mut db = Database::new(DbProfile::MySqlLike);
        db.create_table(TableSchema::of("t", &[("id", DataType::Int)])).unwrap();
        for i in 0..5i64 {
            db.insert("t", vec![Value::Int(i)]).unwrap();
        }
        db
    }

    #[test]
    fn zero_rate_is_transparent() {
        let backend = FaultInjectingBackend::new(tiny(), FaultConfig::default());
        let q = SelectQuery::star_from("t");
        for _ in 0..50 {
            assert_eq!(backend.exec_timed(&q, &ExecOptions::default()).0.unwrap().len(), 5);
        }
        assert_eq!(backend.fault_counts().total(), 0);
        assert_eq!(backend.injectable_calls(), 50);
    }

    #[test]
    fn scripted_faults_fire_in_order() {
        let backend = FaultInjectingBackend::new(tiny(), FaultConfig::default());
        backend.script([Fault::Transient, Fault::Timeout, Fault::ConnectionDrop]);
        let q = SelectQuery::star_from("t");
        let opts = ExecOptions::default();
        assert!(matches!(backend.exec_timed(&q, &opts).0, Err(BackendError::Transient(_))));
        assert!(matches!(backend.exec_timed(&q, &opts).0, Err(BackendError::Timeout)));
        assert!(matches!(backend.exec_timed(&q, &opts).0, Err(BackendError::ConnectionLost(_))));
        // Script drained — calls pass through again.
        assert!(backend.exec_timed(&q, &opts).0.is_ok());
        let counts = backend.fault_counts();
        assert_eq!((counts.transients, counts.timeouts, counts.drops), (1, 1, 1));
    }

    #[test]
    fn same_seed_same_schedule() {
        let outcomes = |seed: u64| {
            let backend =
                FaultInjectingBackend::new(tiny(), FaultConfig::seeded(seed, 0.5));
            let q = SelectQuery::star_from("t");
            (0..40)
                .map(|_| backend.exec_timed(&q, &ExecOptions::default()).0.is_ok())
                .collect::<Vec<_>>()
        };
        assert_eq!(outcomes(42), outcomes(42));
        // Sanity: a 50% rate over 40 calls virtually surely faults once
        // and passes once.
        let o = outcomes(42);
        assert!(o.iter().any(|ok| *ok) && o.iter().any(|ok| !*ok));
    }

    #[test]
    fn disabled_injection_passes_through() {
        let backend = FaultInjectingBackend::new(tiny(), FaultConfig::seeded(7, 1.0));
        backend.script([Fault::Transient]);
        backend.set_enabled(false);
        let q = SelectQuery::star_from("t");
        for _ in 0..10 {
            assert!(backend.exec_timed(&q, &ExecOptions::default()).0.is_ok());
        }
        assert_eq!(backend.fault_counts().total(), 0);
    }
}
