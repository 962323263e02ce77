//! Buggify-style fault points for deterministic simulation.
//!
//! The chaos suites race real OS threads, so any failure they trip is
//! unreproducible. The `sec-sim` crate replaces them with a seeded
//! single-threaded scheduler — but a scheduler can only interleave at points
//! the production code exposes. This module is that exposure: production
//! paths call [`buggify`] ("should the simulated fault at this site fire?")
//! and [`reached`] ("execution passed through this site") at named [`Site`]s,
//! and a simulation installs a [`FaultHook`] to answer.
//!
//! The whole mechanism sits behind the `sim-faults` cargo feature. Without
//! the feature, [`buggify`] and [`reached`] compile to constant no-ops —
//! release builds of the serving stack pay nothing. With the feature, the
//! hook lives in a thread-local so concurrent tests under `cargo test`
//! cannot contaminate each other, and hook callbacks are *masked*: any site
//! visited while a hook callback is on the stack is invisible to the hook,
//! so a hook that drives engine operations (the simulator's interleaving
//! windows) cannot recurse into itself, and an oracle evaluated under
//! [`with_suspended`] is never perturbed by the faults it is checking.
//!
//! The catalogue of sites compiled into the stack is documented in
//! `docs/DST.md`; keep it in sync when adding a call site.

/// Identifier of one fault point. Sites are `'static` string literals
/// namespaced by crate and operation, e.g. `"store::node::read"` or
/// `"cluster::repair::window"`.
pub type Site = &'static str;

/// A simulation's answer to the fault points compiled into the stack.
///
/// Both methods default to "do nothing", so a hook only overrides the sites
/// it cares about. Implementations must not assume they run on any
/// particular thread: the hook is installed per-thread via
/// [`install`] and only ever called from that thread.
pub trait FaultHook {
    /// Returns `true` when the simulated fault at `site` should fire. The
    /// call site then takes its failure path (e.g. a read returns "node
    /// unavailable", a repair aborts before committing).
    fn buggify(&self, _site: Site) -> bool {
        false
    }

    /// Observes that execution reached `site`. The simulator uses this both
    /// to trace progress (e.g. every lock acquisition) and to run queued
    /// operations inside lock-free interleaving windows.
    fn reached(&self, _site: Site) {}
}

#[cfg(feature = "sim-faults")]
mod hooked {
    use super::{FaultHook, Site};
    use std::cell::{Cell, RefCell};
    use std::rc::Rc;

    thread_local! {
        static HOOK: RefCell<Option<Rc<dyn FaultHook>>> = const { RefCell::new(None) };
        static MASKED: Cell<u32> = const { Cell::new(0) };
    }

    /// Proof that a hook is installed on this thread; dropping it uninstalls
    /// the hook (restoring the no-op behaviour).
    #[derive(Debug)]
    pub struct HookGuard {
        _not_send: std::marker::PhantomData<Rc<()>>,
    }

    impl Drop for HookGuard {
        fn drop(&mut self) {
            HOOK.with(|cell| cell.borrow_mut().take());
        }
    }

    /// Installs `hook` as this thread's fault hook until the returned guard
    /// drops. Installing over an existing hook replaces it (the *previous*
    /// hook stays uninstalled when either guard drops — simulations are
    /// expected to nest via scopes, not interleave guards).
    pub fn install(hook: Rc<dyn FaultHook>) -> HookGuard {
        HOOK.with(|cell| *cell.borrow_mut() = Some(hook));
        HookGuard {
            _not_send: std::marker::PhantomData,
        }
    }

    struct MaskGuard;

    impl Drop for MaskGuard {
        fn drop(&mut self) {
            MASKED.with(|c| c.set(c.get().saturating_sub(1)));
        }
    }

    /// Runs `f` with every fault point masked: [`buggify`] returns `false`
    /// and [`reached`] is silent for the duration. The simulator wraps its
    /// single-threaded oracles in this so reference results are computed
    /// fault-free on the same thread as the faulty system under test.
    pub fn with_suspended<R>(f: impl FnOnce() -> R) -> R {
        MASKED.with(|c| c.set(c.get().saturating_add(1)));
        let _guard = MaskGuard;
        f()
    }

    /// Consults the installed hook about the fault point `site`. `false`
    /// when no hook is installed, when masked, or when the hook declines.
    pub fn buggify(site: Site) -> bool {
        if MASKED.with(Cell::get) > 0 {
            return false;
        }
        // Clone the hook out and release the borrow before calling it, so a
        // callback that re-enters this module never trips the RefCell.
        let hook = HOOK.with(|cell| cell.borrow().clone());
        match hook {
            Some(hook) => with_suspended(|| hook.buggify(site)),
            None => false,
        }
    }

    /// Reports to the installed hook that execution reached `site`. A no-op
    /// when no hook is installed or while masked.
    pub fn reached(site: Site) {
        if MASKED.with(Cell::get) > 0 {
            return;
        }
        let hook = HOOK.with(|cell| cell.borrow().clone());
        if let Some(hook) = hook {
            with_suspended(|| hook.reached(site));
        }
    }
}

#[cfg(not(feature = "sim-faults"))]
mod hooked {
    use super::Site;

    /// Without `sim-faults` no fault ever fires.
    #[inline(always)]
    pub fn buggify(_site: Site) -> bool {
        false
    }

    /// Without `sim-faults` site visits are not observable.
    #[inline(always)]
    pub fn reached(_site: Site) {}

    /// Without `sim-faults` there is nothing to suspend.
    #[inline(always)]
    pub fn with_suspended<R>(f: impl FnOnce() -> R) -> R {
        f()
    }
}

pub use hooked::{buggify, reached, with_suspended};

#[cfg(feature = "sim-faults")]
pub use hooked::{install, HookGuard};

#[cfg(all(test, feature = "sim-faults"))]
mod tests {
    use super::*;
    use std::cell::{Cell, RefCell};
    use std::rc::Rc;

    #[derive(Default)]
    struct Recorder {
        fire: Cell<bool>,
        sites: RefCell<Vec<Site>>,
    }

    impl FaultHook for Recorder {
        fn buggify(&self, site: Site) -> bool {
            self.sites.borrow_mut().push(site);
            self.fire.get()
        }

        fn reached(&self, site: Site) {
            self.sites.borrow_mut().push(site);
        }
    }

    #[test]
    fn no_hook_means_no_faults() {
        assert!(!buggify("test::site"));
        reached("test::site"); // must not panic
    }

    #[test]
    fn installed_hook_sees_sites_and_guard_uninstalls() {
        let hook = Rc::new(Recorder::default());
        {
            let _guard = install(hook.clone());
            hook.fire.set(true);
            assert!(buggify("test::a"));
            reached("test::b");
        }
        assert_eq!(*hook.sites.borrow(), vec!["test::a", "test::b"]);
        // Guard dropped: back to no-op.
        assert!(!buggify("test::a"));
        assert_eq!(hook.sites.borrow().len(), 2);
    }

    #[test]
    fn suspension_masks_all_sites() {
        let hook = Rc::new(Recorder::default());
        let _guard = install(hook.clone());
        hook.fire.set(true);
        let inner = with_suspended(|| buggify("test::masked"));
        assert!(!inner);
        reached("test::live");
        assert_eq!(*hook.sites.borrow(), vec!["test::live"]);
    }

    struct Reentrant {
        nested: Cell<u32>,
    }

    impl FaultHook for Reentrant {
        fn reached(&self, _site: Site) {
            // A hook that drives more production code must not observe the
            // sites that code visits (or it would recurse forever).
            reached("test::nested");
            if buggify("test::nested") {
                self.nested.set(self.nested.get() + 1);
            }
        }
    }

    #[test]
    fn hook_callbacks_are_masked_against_reentry() {
        let hook = Rc::new(Reentrant { nested: Cell::new(0) });
        let _guard = install(hook.clone());
        reached("test::outer");
        assert_eq!(hook.nested.get(), 0);
    }
}
