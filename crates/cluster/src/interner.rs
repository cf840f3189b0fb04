//! Tenant-name interning: dense `u32` ids for the dispatch hot path.
//!
//! The fleet keys every per-tenant structure — resident location, the
//! degraded-rate map, pending release phases, event payloads — by a
//! [`TenantId`] assigned at the fleet boundary, so the hot path does
//! index arithmetic instead of hashing and cloning `String` names.
//! Names are resolved back only at the render edge (JSON, telemetry)
//! and where the execution model's jitter hashes them.
//!
//! # Determinism
//!
//! Ids are assigned in **first-appearance order** of the arrival
//! sequence, and a departed tenant's id is recycled LIFO — both pure
//! functions of the event sequence, never of hash iteration order, so
//! interning is deterministic across runs, worker counts, and engines.
//! Recycling is also what bounds memory: the id space (and every
//! id-indexed `Vec`) grows to the *peak concurrently-active* tenant
//! count, not the trace length — the property that lets a fleet stream
//! millions of tenants in O(active) memory.

use std::collections::HashMap;

/// A dense handle for an active tenant, assigned by [`TenantInterner`]
/// in first-appearance order (recycled LIFO after release). Valid only
/// while the tenant is active; the fleet's generation/incarnation
/// guards make stale ids inert.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(u32);

impl TenantId {
    /// The id as a `Vec` index.
    #[must_use]
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds an id from a raw slot (crate-internal: tests and the
    /// interner itself; callers elsewhere receive ids from `intern`).
    pub(crate) const fn from_raw(raw: u32) -> Self {
        TenantId(raw)
    }
}

impl core::fmt::Display for TenantId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "t#{}", self.0)
    }
}

/// Active-tenant name ⇄ id table with LIFO slot recycling.
///
/// `by_name` holds **active** tenants only, so a lookup doubles as the
/// fleet's duplicate/active check (the map is never iterated — keyed
/// lookup only, per the determinism contract's D001).
#[derive(Debug, Default)]
pub struct TenantInterner {
    /// Slot → name of the active tenant occupying it (`None` = free).
    names: Vec<Option<String>>,
    /// Active name → slot. Lookup-only; never iterated.
    by_name: HashMap<String, u32>,
    /// Freed slots, reused LIFO (deterministic: a pure function of the
    /// arrival/departure sequence).
    free: Vec<u32>,
    /// High-water mark of concurrently active tenants.
    peak_live: usize,
}

impl TenantInterner {
    /// An empty table.
    #[must_use]
    pub(crate) fn new() -> Self {
        TenantInterner::default()
    }

    /// Interns `name`, assigning the most recently freed slot (or a
    /// fresh one in first-appearance order).
    ///
    /// # Panics
    ///
    /// Panics if `name` is already active (the caller must check
    /// [`TenantInterner::lookup`] first — the fleet's duplicate gate).
    pub(crate) fn intern(&mut self, name: &str) -> TenantId {
        assert!(
            !self.by_name.contains_key(name),
            "tenant name {name:?} is already active"
        );
        let slot = match self.free.pop() {
            Some(slot) => {
                self.names[slot as usize] = Some(name.to_string());
                slot
            }
            None => {
                let slot = u32::try_from(self.names.len())
                    .expect("invariant: active tenants fit in u32 ids");
                self.names.push(Some(name.to_string()));
                slot
            }
        };
        self.by_name.insert(name.to_string(), slot);
        self.peak_live = self.peak_live.max(self.live());
        TenantId(slot)
    }

    /// The active tenant's id, if `name` is active.
    #[must_use]
    pub(crate) fn lookup(&self, name: &str) -> Option<TenantId> {
        self.by_name.get(name).copied().map(TenantId)
    }

    /// The active tenant's name.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not active (stale or released).
    #[must_use]
    pub(crate) fn name(&self, id: TenantId) -> &str {
        self.names
            .get(id.index())
            .and_then(Option::as_deref)
            .expect("invariant: resolved tenant ids are active")
    }

    /// Releases `id`, freeing its slot (LIFO reuse) and its name.
    pub(crate) fn release(&mut self, id: TenantId) {
        if let Some(name) = self.names.get_mut(id.index()).and_then(Option::take) {
            self.by_name.remove(&name);
            self.free.push(id.0);
        }
    }

    /// Number of currently active tenants.
    #[must_use]
    pub(crate) fn live(&self) -> usize {
        self.by_name.len()
    }

    /// High-water mark of concurrently active tenants.
    #[must_use]
    pub(crate) fn peak_live(&self) -> usize {
        self.peak_live
    }

    /// Total id slots ever allocated — with LIFO recycling this equals
    /// the peak active population, **not** the number of tenants ever
    /// seen: the capacity check the O(active)-memory claim rests on.
    #[must_use]
    pub(crate) fn capacity(&self) -> usize {
        self.names.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_assign_in_first_appearance_order() {
        let mut i = TenantInterner::new();
        assert_eq!(i.intern("a"), TenantId::from_raw(0));
        assert_eq!(i.intern("b"), TenantId::from_raw(1));
        assert_eq!(i.lookup("a"), Some(TenantId::from_raw(0)));
        assert_eq!(i.name(TenantId::from_raw(1)), "b");
        assert_eq!(i.lookup("c"), None);
    }

    #[test]
    fn released_slots_recycle_lifo_and_bound_capacity() {
        let mut i = TenantInterner::new();
        let a = i.intern("a");
        let b = i.intern("b");
        i.release(a);
        i.release(b);
        // LIFO: the most recently freed slot (b's) goes first.
        assert_eq!(i.intern("c"), b);
        assert_eq!(i.intern("d"), a);
        assert_eq!(i.lookup("a"), None, "released names are forgotten");
        assert_eq!(i.capacity(), 2, "capacity tracks peak live, not total interned");
        assert_eq!(i.peak_live(), 2);
        assert_eq!(i.live(), 2);
    }

    #[test]
    fn release_is_idempotent() {
        let mut i = TenantInterner::new();
        let a = i.intern("a");
        i.release(a);
        i.release(a);
        assert_eq!(i.capacity(), 1);
        assert_eq!(i.intern("b"), a);
        assert_eq!(i.live(), 1);
    }

    #[test]
    #[should_panic(expected = "already active")]
    fn double_intern_panics() {
        let mut i = TenantInterner::new();
        i.intern("a");
        i.intern("a");
    }
}
