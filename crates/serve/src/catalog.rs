//! The multi-tenant plan catalog: content-addressed prepared plans under
//! a byte budget.
//!
//! Entries are keyed by [`MatrixFingerprint`] — the CRC-32 + length +
//! shape of the matrix's canonical v2 wire stream — so two tenants
//! uploading the same matrix share one [`spasm::Prepared`] (and, through
//! it, the `Arc`-shared value stream). Eviction is LRU under a
//! configurable byte budget, where an entry's size is its plan's
//! resident footprint ([`spasm_hw::ExecutionPlan::memory_bytes`]) plus
//! the encoded matrix and the golden CSR reference. Plans that are
//! *leased* (queued or executing requests hold a [`PlanLease`]) are
//! pinned and never evicted; inserting a plan that cannot fit alongside
//! the pinned set fails loudly instead of evicting in-flight work.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use spasm::{DeltaOutcome, Pipeline, PipelineError, Prepared};
use spasm_format::{is_v3, MatrixFingerprint, SpasmMatrix, WireError};
use spasm_sparse::MatrixDelta;
use spasm_store::{FrozenPlan, PlanBuffer, StoreError};

use crate::breaker::{BreakerConfig, BreakerEvent, BreakerState, ExecRoute, PlanHealth};
use crate::clock::Tick;

/// Configuration for a [`PlanCatalog`].
#[derive(Debug, Clone, Copy)]
pub struct CatalogConfig {
    /// Total resident-byte budget across all cached plans.
    pub byte_budget: usize,
}

impl Default for CatalogConfig {
    fn default() -> Self {
        CatalogConfig {
            byte_budget: 512 << 20,
        }
    }
}

/// Errors from catalog ingest and lookup.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CatalogError {
    /// The wire stream did not decode.
    Wire(WireError),
    /// The pipeline could not prepare the matrix.
    Pipeline(PipelineError),
    /// The plan alone exceeds the whole budget; it can never be cached.
    PlanTooLarge {
        /// Resident bytes the plan needs.
        bytes: usize,
        /// The catalog's budget.
        budget: usize,
    },
    /// The requested fingerprint is not resident in the catalog.
    NotResident,
    /// The plan fits the budget, but not alongside the currently pinned
    /// (in-flight) plans — nothing evictable is large enough.
    BudgetPinned {
        /// Resident bytes the plan needs.
        bytes: usize,
        /// Bytes held by pinned entries after evicting everything else.
        pinned: usize,
        /// The catalog's budget.
        budget: usize,
    },
}

impl fmt::Display for CatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CatalogError::Wire(e) => write!(f, "wire decode failed: {e}"),
            CatalogError::Pipeline(e) => write!(f, "prepare failed: {e}"),
            CatalogError::PlanTooLarge { bytes, budget } => {
                write!(f, "plan needs {bytes} bytes, catalog budget is {budget}")
            }
            CatalogError::NotResident => write!(f, "no resident plan under that fingerprint"),
            CatalogError::BudgetPinned {
                bytes,
                pinned,
                budget,
            } => write!(
                f,
                "plan needs {bytes} bytes but {pinned} of the {budget}-byte \
                 budget is pinned by in-flight plans"
            ),
        }
    }
}

impl std::error::Error for CatalogError {}

impl From<WireError> for CatalogError {
    fn from(e: WireError) -> Self {
        CatalogError::Wire(e)
    }
}

impl From<PipelineError> for CatalogError {
    fn from(e: PipelineError) -> Self {
        CatalogError::Pipeline(e)
    }
}

/// Maps store-layer failures onto the catalog's error surface: container
/// corruption is a wire error, inconsistent plan parts surface through
/// the pipeline's simulator mapping. I/O cannot occur on the in-memory
/// ingest path; it is reported as an inconsistent stream for
/// completeness.
fn map_store(e: StoreError) -> CatalogError {
    match e {
        StoreError::Wire(w) => CatalogError::Wire(w),
        StoreError::Sim(s) => CatalogError::Pipeline(s.into()),
        _ => CatalogError::Wire(WireError::Inconsistent("plan store i/o failure")),
    }
}

/// The *owned* resident footprint of a prepared plan for budgeting
/// purposes: the execution plan's owned streams, layout and scratch
/// ([`spasm_hw::ExecutionPlan::memory_bytes`], which excludes mapped
/// wire-v3 sections — those are priced separately as the container's
/// bytes), the encoded matrix's storage, and the golden CSR reference
/// kept for the degradation ladder (priced at its materialised size
/// whether or not a lazy one has been forced yet).
pub fn prepared_bytes(p: &Prepared) -> usize {
    p.plan.memory_bytes() + p.encoded.storage_bytes_full() + p.golden_bytes()
}

/// One cached plan. Accessed through a [`PlanLease`].
///
/// The fingerprint, byte price and latency estimate are interior-mutable:
/// a streaming update ([`PlanCatalog::apply_delta`]) re-keys and reprices
/// the entry in place, without evicting it or invalidating live leases.
#[derive(Debug)]
pub struct CatalogEntry {
    fingerprint: Mutex<MatrixFingerprint>,
    prepared: Mutex<Prepared>,
    bytes: AtomicUsize,
    /// Bytes of a pinned wire-v3 container the plan's streams borrow
    /// (0 for plans prepared in process).
    mapped: usize,
    rows: u32,
    cols: u32,
    /// Predicted simulated seconds of one single-vector execution (f64
    /// bits), from the plan's cycle model: the price the server charges
    /// a golden-CSR (quarantine) serve per vector, since the golden path
    /// has no cycle model of its own.
    seconds_estimate: AtomicU64,
    /// Circuit-breaker bookkeeping: recent execution outcomes and the
    /// Healthy → Quarantined → HalfOpen state (see [`crate::breaker`]).
    health: Mutex<PlanHealth>,
    pins: AtomicUsize,
    last_used: AtomicU64,
}

impl CatalogEntry {
    /// Locks the prepared plan for execution. Batches against the same
    /// matrix serialise here; the plan's own scratch is reused across
    /// them.
    pub fn prepared(&self) -> MutexGuard<'_, Prepared> {
        self.prepared.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The entry's content fingerprint (the current one — a streaming
    /// update re-keys the entry under its mutated content).
    pub fn fingerprint(&self) -> MatrixFingerprint {
        *self.fingerprint.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Resident bytes charged against the catalog budget (owned plan
    /// state plus any mapped container; repriced by streaming updates).
    pub fn bytes(&self) -> usize {
        self.bytes.load(Ordering::SeqCst)
    }

    /// Bytes of this entry backed by a pinned wire-v3 container rather
    /// than owned allocations — zero for plans prepared in process. The
    /// plan's stream sections borrow these bytes; nothing was copied out
    /// of them at ingest.
    pub fn mapped_bytes(&self) -> usize {
        self.mapped
    }

    /// Dense row count of the cached matrix.
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Dense column count of the cached matrix (the request-vector
    /// length the server validates against).
    pub fn cols(&self) -> u32 {
        self.cols
    }

    /// Predicted simulated seconds of one single-vector execution (the
    /// plan's cycle model; repriced by streaming updates) — the
    /// deterministic price of a golden-CSR serve.
    pub fn seconds_estimate(&self) -> f64 {
        f64::from_bits(self.seconds_estimate.load(Ordering::SeqCst))
    }

    /// The plan's current circuit-breaker state.
    pub fn breaker_state(&self) -> BreakerState {
        self.lock_health().state()
    }

    /// How many times this plan has tripped into quarantine.
    pub fn breaker_trips(&self) -> u64 {
        self.lock_health().trips()
    }

    /// Routes the plan's next batch at `now` (see
    /// [`PlanHealth::route`]). The server calls this serially, in flush
    /// order, so the decision is independent of worker count.
    pub fn route(&self, now: Tick, config: &BreakerConfig) -> ExecRoute {
        self.lock_health().route(now, config)
    }

    /// Records a finished batch's per-vector outcomes (`true` = needed
    /// the golden fallback or errored) for the route it was issued
    /// under; returns the breaker transition, if one fired. The server
    /// calls this in flush order after the round's barrier.
    pub fn record_outcomes(
        &self,
        route: ExecRoute,
        outcomes: &[bool],
        now: Tick,
        config: &BreakerConfig,
    ) -> Option<BreakerEvent> {
        self.lock_health().record(route, outcomes, now, config)
    }

    fn lock_health(&self) -> MutexGuard<'_, PlanHealth> {
        self.health.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// An RAII pin on a catalog entry: while any lease is alive the entry is
/// in flight and will not be evicted. Cloning a lease re-pins.
///
/// **Removal guarantee:** [`PlanCatalog::remove`] on a leased entry
/// never invalidates the lease. The entry leaves the index immediately
/// (no new leases can be taken), but its plan — and its bytes in the
/// budget ledger — stay resident until the last live lease drops; the
/// catalog reaps it on its next operation after that. A lease is
/// therefore always safe to execute against, even across an explicit
/// removal.
#[derive(Debug)]
pub struct PlanLease {
    entry: Arc<CatalogEntry>,
}

impl PlanLease {
    fn new(entry: Arc<CatalogEntry>) -> Self {
        entry.pins.fetch_add(1, Ordering::SeqCst);
        PlanLease { entry }
    }

    /// The leased entry.
    pub fn entry(&self) -> &CatalogEntry {
        &self.entry
    }
}

impl Clone for PlanLease {
    fn clone(&self) -> Self {
        PlanLease::new(Arc::clone(&self.entry))
    }
}

impl Drop for PlanLease {
    fn drop(&mut self) {
        self.entry.pins.fetch_sub(1, Ordering::SeqCst);
    }
}

impl std::ops::Deref for PlanLease {
    type Target = CatalogEntry;

    fn deref(&self) -> &CatalogEntry {
        &self.entry
    }
}

#[derive(Debug, Default)]
struct Inner {
    entries: BTreeMap<MatrixFingerprint, Arc<CatalogEntry>>,
    /// Entries removed while leased: out of the index (no new leases),
    /// but still charged to `resident` until their last lease drops.
    doomed: Vec<Arc<CatalogEntry>>,
    resident: usize,
    use_counter: u64,
}

impl Inner {
    /// Frees doomed entries whose last lease has dropped.
    fn reap(&mut self) {
        self.doomed.retain(|entry| {
            if entry.pins.load(Ordering::SeqCst) == 0 {
                self.resident -= entry.bytes();
                false
            } else {
                true
            }
        });
    }
}

/// The content-addressed plan cache. See the module docs for semantics.
#[derive(Debug)]
pub struct PlanCatalog {
    budget: usize,
    inner: Mutex<Inner>,
    /// Full pipeline prepares performed on behalf of ingest — the work
    /// residency checks and the wire-v3 fast path exist to avoid.
    prepares: AtomicU64,
}

impl PlanCatalog {
    /// An empty catalog with the given budget.
    pub fn new(config: CatalogConfig) -> Self {
        PlanCatalog {
            budget: config.byte_budget,
            inner: Mutex::new(Inner::default()),
            prepares: AtomicU64::new(0),
        }
    }

    /// How many full pipeline prepares ingest has performed so far.
    /// Residency hits and wire-v3 ingests do not count — tests pin the
    /// re-ingest and cold-start fast paths on this staying flat.
    pub fn prepares_performed(&self) -> u64 {
        self.prepares.load(Ordering::SeqCst)
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.reap();
        inner
    }

    /// The configured byte budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Bytes currently resident across all entries.
    pub fn resident_bytes(&self) -> usize {
        self.lock().resident
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.lock().entries.is_empty()
    }

    /// `true` when `fingerprint` is resident.
    pub fn contains(&self, fingerprint: &MatrixFingerprint) -> bool {
        self.lock().entries.contains_key(fingerprint)
    }

    /// The resident fingerprints, in key order.
    pub fn fingerprints(&self) -> Vec<MatrixFingerprint> {
        self.lock().entries.keys().copied().collect()
    }

    /// Leases the plan for `fingerprint`, bumping its recency and pinning
    /// it against eviction for the lease's lifetime.
    pub fn get(&self, fingerprint: &MatrixFingerprint) -> Option<PlanLease> {
        let mut inner = self.lock();
        inner.use_counter += 1;
        let stamp = inner.use_counter;
        let entry = inner.entries.get(fingerprint)?;
        entry.last_used.store(stamp, Ordering::SeqCst);
        Some(PlanLease::new(Arc::clone(entry)))
    }

    /// Caches `prepared` under the fingerprint of its own encoded matrix
    /// (the canonical content the pipeline produced). Returns the key.
    ///
    /// # Errors
    ///
    /// [`CatalogError::PlanTooLarge`] / [`CatalogError::BudgetPinned`]
    /// when the plan cannot fit (see the module docs).
    pub fn insert_prepared(&self, prepared: Prepared) -> Result<MatrixFingerprint, CatalogError> {
        let key = prepared.encoded.fingerprint();
        self.insert_keyed(key, prepared, 0)?;
        Ok(key)
    }

    /// Ingests a wire stream, keyed by the *ingested stream's* canonical
    /// fingerprint (which is what remote clients can compute), not the
    /// re-encoded one. If the key is already resident this is a no-op
    /// that runs no prepare; for v2 it is decided from the stream
    /// *header* alone, before any decode.
    ///
    /// Three stream generations route differently:
    ///
    /// * **v3** — the zero-copy fast path: the container is copied once
    ///   into an aligned buffer, validated, and the plan's streams point
    ///   into it. The key is the fingerprint of the encoded matrix derived
    ///   from the validated plan. No pipeline prepare runs.
    /// * **v2** — fingerprint from the header; on a miss, decode and
    ///   fully re-prepare through `pipeline`.
    /// * **v1** — no trailing CRC, so the fingerprint requires the full
    ///   decode; then as v2.
    ///
    /// # Errors
    ///
    /// [`CatalogError::Wire`] on undecodable or corrupt bytes,
    /// [`CatalogError::Pipeline`] when prepare (or a frozen plan's
    /// validation) fails, and the budget errors of
    /// [`PlanCatalog::insert_prepared`].
    pub fn insert_wire(
        &self,
        bytes: &[u8],
        pipeline: &Pipeline,
    ) -> Result<MatrixFingerprint, CatalogError> {
        if is_v3(bytes) {
            return self.insert_wire_v3(bytes, pipeline);
        }
        // v2 headers carry the fingerprint; check residency before
        // spending any decode or prepare work on a stream we already
        // hold. (v1 streams have no CRC in the header, so their key
        // genuinely needs the decode below.)
        if let Ok(key) = MatrixFingerprint::of_wire_bytes(bytes) {
            if self.contains(&key) {
                return Ok(key);
            }
        }
        let decoded = SpasmMatrix::from_bytes(bytes)?;
        let key = decoded.fingerprint();
        if self.contains(&key) {
            return Ok(key);
        }
        // Re-prepare from COO: the pipeline re-runs selection and
        // scheduling for this corpus member. Freezing the prepared plan
        // to wire v3 (`spasm-store`) removes this cost on the next cold
        // start; the catalog's key is the same either way.
        self.prepares.fetch_add(1, Ordering::SeqCst);
        let prepared = pipeline.prepare(&decoded.to_coo())?;
        self.insert_keyed(key, prepared, 0)?;
        Ok(key)
    }

    /// The wire-v3 ingest fast path: one aligned copy of the container,
    /// container + plan validation, then a [`Prepared`] whose immutable
    /// streams borrow the pinned buffer. No pipeline prepare runs. The
    /// key is the fingerprint of the matrix derived from the plan's own
    /// sections, so a resident file costs one thaw to recognise.
    fn insert_wire_v3(
        &self,
        bytes: &[u8],
        pipeline: &Pipeline,
    ) -> Result<MatrixFingerprint, CatalogError> {
        let buffer = PlanBuffer::from_bytes(bytes);
        let frozen = FrozenPlan::open(buffer).map_err(map_store)?;
        let mapped = frozen.mapped_len();
        let (encoded, plan) = frozen.thaw().map_err(map_store)?;
        let key = encoded.fingerprint();
        if self.contains(&key) {
            return Ok(key);
        }
        let prepared = Prepared::restore(
            encoded,
            plan,
            pipeline.options().parallelism,
            pipeline.options().integrity,
        )?;
        self.insert_keyed(key, prepared, mapped)?;
        Ok(key)
    }

    /// Inserts under an explicit key. No-op when the key is resident
    /// (entries are content-addressed: same key, same content).
    /// `mapped` is the pinned container size for wire-v3 entries (0 for
    /// in-process plans); it is charged to the budget alongside the
    /// owned footprint.
    pub(crate) fn insert_keyed(
        &self,
        key: MatrixFingerprint,
        prepared: Prepared,
        mapped: usize,
    ) -> Result<(), CatalogError> {
        let bytes = prepared_bytes(&prepared) + mapped;
        if bytes > self.budget {
            return Err(CatalogError::PlanTooLarge {
                bytes,
                budget: self.budget,
            });
        }
        let mut inner = self.lock();
        if inner.entries.contains_key(&key) {
            return Ok(());
        }
        Self::evict_to_fit(&mut inner, self.budget, bytes)?;
        inner.use_counter += 1;
        let stamp = inner.use_counter;
        let entry = Arc::new(CatalogEntry {
            fingerprint: Mutex::new(key),
            rows: prepared.plan.rows(),
            cols: prepared.plan.cols(),
            seconds_estimate: AtomicU64::new(prepared.report().seconds.to_bits()),
            prepared: Mutex::new(prepared),
            bytes: AtomicUsize::new(bytes),
            mapped,
            health: Mutex::new(PlanHealth::default()),
            pins: AtomicUsize::new(0),
            last_used: AtomicU64::new(stamp),
        });
        inner.resident += bytes;
        inner.entries.insert(key, entry);
        Ok(())
    }

    /// Evicts least-recently-used unpinned entries until `incoming` fits.
    fn evict_to_fit(inner: &mut Inner, budget: usize, incoming: usize) -> Result<(), CatalogError> {
        while inner.resident + incoming > budget {
            let victim = inner
                .entries
                .iter()
                .filter(|(_, e)| e.pins.load(Ordering::SeqCst) == 0)
                .min_by_key(|(_, e)| e.last_used.load(Ordering::SeqCst))
                .map(|(k, _)| *k);
            match victim {
                Some(fp) => {
                    if let Some(e) = inner.entries.remove(&fp) {
                        inner.resident -= e.bytes();
                    }
                }
                None => {
                    return Err(CatalogError::BudgetPinned {
                        bytes: incoming,
                        pinned: inner.resident,
                        budget,
                    });
                }
            }
        }
        Ok(())
    }

    /// Explicitly removes an entry. Returns `false` when the key is
    /// absent.
    ///
    /// Removal while [`PlanLease`]s are live is *deferred*: the entry
    /// leaves the index at once (`contains` turns false, `get` stops
    /// issuing leases), but its plan and bytes stay resident until the
    /// last lease drops — in-flight requests are never invalidated. The
    /// catalog reaps the bytes on its next operation after the final
    /// drop.
    pub fn remove(&self, fingerprint: &MatrixFingerprint) -> bool {
        let mut inner = self.lock();
        let Some(entry) = inner.entries.remove(fingerprint) else {
            return false;
        };
        if entry.pins.load(Ordering::SeqCst) > 0 {
            inner.doomed.push(entry);
        } else {
            inner.resident -= entry.bytes();
        }
        true
    }

    /// Applies a streaming update to the resident plan for `fingerprint`
    /// *in place*: the entry's [`spasm::Prepared`] absorbs the delta
    /// through [`Prepared::apply_delta`], and the entry is re-keyed under
    /// the mutated content's fingerprint and repriced (bytes, predicted
    /// seconds) without being evicted — live [`PlanLease`]s, queued
    /// requests and in-flight batches stay valid throughout. An in-flight
    /// batch that cloned the plan's value stream before the update keeps
    /// serving the old generation; the next flush reads the new one
    /// (observable through [`spasm_hw::ExecutionPlan::version`]).
    ///
    /// Returns the new fingerprint (the key subsequent requests must use)
    /// and how the delta was absorbed.
    ///
    /// If the update *grows* the entry past the byte budget, unpinned
    /// siblings are evicted best-effort; the updated entry itself is
    /// leased during the operation and never a victim. A transient
    /// overrun can remain when everything else is pinned — it drains as
    /// leases drop.
    ///
    /// # Errors
    ///
    /// [`CatalogError::NotResident`] when the key is unknown, and
    /// [`CatalogError::Pipeline`] when the delta fails validation (the
    /// plan and its catalog entry are untouched).
    pub fn apply_delta(
        &self,
        fingerprint: &MatrixFingerprint,
        delta: &MatrixDelta,
    ) -> Result<(MatrixFingerprint, DeltaOutcome), CatalogError> {
        // Lease the entry: pinned against eviction for the duration.
        let lease = self.get(fingerprint).ok_or(CatalogError::NotResident)?;
        let entry = lease.entry();
        let (outcome, new_key, new_bytes, seconds) = {
            let mut p = entry.prepared();
            let outcome = p.apply_delta(delta).map_err(CatalogError::Pipeline)?;
            (
                outcome,
                p.encoded.fingerprint(),
                prepared_bytes(&p) + entry.mapped,
                p.report().seconds,
            )
        };

        let old_key = *fingerprint;
        let mut inner = self.lock();
        let old_bytes = entry.bytes.swap(new_bytes, Ordering::SeqCst);
        entry
            .seconds_estimate
            .store(seconds.to_bits(), Ordering::SeqCst);
        *entry.fingerprint.lock().unwrap_or_else(|e| e.into_inner()) = new_key;
        inner.resident = inner.resident - old_bytes + new_bytes;
        if new_key != old_key {
            if let Some(arc) = inner.entries.remove(&old_key) {
                // Content addressing: if the mutated content collides
                // with another resident entry, the updated plan replaces
                // it (same key ⇒ same content; the displaced entry is
                // doomed if leased, freed otherwise).
                if let Some(displaced) = inner.entries.insert(new_key, arc) {
                    if displaced.pins.load(Ordering::SeqCst) > 0 {
                        inner.doomed.push(displaced);
                    } else {
                        inner.resident -= displaced.bytes();
                    }
                }
            }
        }
        // Growth may overrun the budget; shed unpinned siblings
        // best-effort (a fully pinned catalog drains as leases drop).
        let _ = Self::evict_to_fit(&mut inner, self.budget, 0);
        drop(inner);
        Ok((new_key, outcome))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spasm::PipelineOptions;
    use spasm_hw::HwConfig;
    use spasm_patterns::TemplateSet;
    use spasm_sparse::Coo;

    fn prepared(n: u32) -> Prepared {
        let t: Vec<(u32, u32, f32)> = (0..n)
            .flat_map(|i| (0..3u32).map(move |k| (i, (i * 37 + k * 13) % n, 0.5 + k as f32)))
            .collect();
        let coo = Coo::from_triplets(n, n, t).expect("valid triplets");
        Pipeline::with_options(
            PipelineOptions::default()
                .fixed_portfolio(TemplateSet::table_v_set(0))
                .fixed_schedule(256, HwConfig::spasm_4_1()),
        )
        .prepare(&coo)
        .expect("prepare")
    }

    /// Satellite regression: removal while a lease is live defers the
    /// eviction until the lease drops — the lease stays executable, the
    /// bytes stay charged, and no new lease can be taken in between.
    #[test]
    fn remove_of_leased_entry_defers_eviction_until_lease_drops() {
        let catalog = PlanCatalog::new(CatalogConfig::default());
        let fp = catalog.insert_prepared(prepared(64)).expect("insert");
        let bytes = catalog.resident_bytes();
        assert!(bytes > 0);

        let lease = catalog.get(&fp).expect("lease");
        assert!(catalog.remove(&fp), "removal of a leased entry is accepted");
        assert!(
            !catalog.contains(&fp),
            "a doomed entry leaves the index immediately"
        );
        assert!(catalog.get(&fp).is_none(), "no new leases after removal");
        assert_eq!(
            catalog.resident_bytes(),
            bytes,
            "bytes stay charged while the lease is live"
        );
        // The live lease still executes against the doomed plan.
        {
            let mut p = lease.prepared();
            let cols = lease.cols() as usize;
            let mut y = vec![0.0f32; lease.rows() as usize];
            p.execute(&vec![1.0f32; cols], &mut y).expect("execute");
        }
        drop(lease);
        assert_eq!(
            catalog.resident_bytes(),
            0,
            "the last lease drop releases the bytes (reaped on the next op)"
        );
        assert!(!catalog.remove(&fp), "second removal finds nothing");
    }

    #[test]
    fn remove_of_unleased_entry_is_immediate() {
        let catalog = PlanCatalog::new(CatalogConfig::default());
        let fp = catalog.insert_prepared(prepared(64)).expect("insert");
        assert!(catalog.remove(&fp));
        assert!(!catalog.contains(&fp));
        assert_eq!(catalog.resident_bytes(), 0);
    }

    /// A doomed entry's bytes still count against the budget: an insert
    /// that cannot fit alongside doomed-but-leased plans fails loudly
    /// rather than overrunning.
    #[test]
    fn doomed_entries_still_count_against_the_budget() {
        let seed = prepared(64);
        let bytes = prepared_bytes(&seed);
        let catalog = PlanCatalog::new(CatalogConfig {
            byte_budget: bytes + bytes / 2,
        });
        let fp = catalog.insert_prepared(seed).expect("insert");
        let lease = catalog.get(&fp).expect("lease");
        assert!(catalog.remove(&fp));
        let err = catalog
            .insert_prepared(prepared(72))
            .expect_err("doomed bytes are still pinned");
        assert!(
            matches!(err, CatalogError::BudgetPinned { .. }),
            "got {err:?}"
        );
        drop(lease);
        catalog
            .insert_prepared(prepared(72))
            .expect("fits after reap");
    }
}
