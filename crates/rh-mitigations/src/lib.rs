//! # rh-mitigations — mitigation policy layer
//!
//! Every mitigation observes the same per-activation stream through the
//! [`Mitigation`] trait and emits [`MitigationAction`]s into a reusable
//! [`ActionBuf`] sink that the engine (in `rh-cli`) applies to the device
//! model — sink-style rather than `Vec`-returning so the per-activation hot
//! path never allocates. This mirrors how the ISCA 2020 paper evaluates
//! mechanisms: all five see identical activation sequences and differ only
//! in when they refresh potential victims.
//!
//! Implemented policies:
//!
//! * [`NoMitigation`] — baseline; relies solely on periodic auto-refresh.
//! * [`Para`] — Probabilistic Adjacent Row Activation (Kim et al., ISCA
//!   2014): on each activation, with probability `p`, refresh the
//!   aggressor's neighbors. Stateless apart from its RNG.
//! * [`Graphene`] — top-k frequent-row tracking via the Misra–Gries heavy
//!   hitters algorithm (Park et al., MICRO 2020): refresh a tracked row's
//!   neighbors whenever its estimated count crosses a threshold.
//! * [`IncreasedRefresh`] — shorten the effective refresh window by issuing
//!   full-device refreshes every `interval` activations; the paper shows
//!   this scales worst as `HC_first` drops.
//! * [`Trr`] — sampling-window Target Row Refresh: per-bank Misra–Gries
//!   tables with a small per-window targeted-refresh budget, the deployed
//!   mechanism that many-sided (TRRespass-style) patterns defeat.
//!
//! [`MitigationSpec`] is the serializable factory form of all of the above:
//! sweep plans carry specs, and executor threads build fresh instances per
//! cell so sharded runs stay deterministic. [`MitigationKind`] is the
//! monomorphized enum the specs build — the engine dispatches on its variant
//! tag instead of a `Box<dyn Mitigation>` vtable, so `on_activate` bodies
//! inline into the hot loop.
//!
//! Hot-path invariant (matching `rh-workloads::next_access`): **counter
//! tables never allocate after construction.** Graphene's and TRR's
//! Misra–Gries state lives in fixed-capacity [`FlatCounterTable`]s —
//! power-of-two open-addressing arrays sized at construction, with the
//! decrement-pass scratch preallocated alongside — and TRR's target-
//! selection scratch is a reusable buffer bounded by the table size. No
//! mitigation's `on_activate` touches the allocator; the only allocating
//! method is `name()`, called once per run. New counter-based mechanisms
//! must preserve this: build fixed structures in the spec's `build` (which
//! receives the geometry precisely so tables can be pre-sized) and reuse
//! them for the whole run. The retained map-based forms
//! ([`reference::MapGraphene`], [`reference::MapTrr`]) are exempt — they
//! exist only as references for the differential tests and `rh-cli`'s
//! legacy-equivalence test.

pub mod graphene;
pub mod para;
pub mod reference;
pub mod refresh;
pub mod spec;
pub mod table;
pub mod trr;

pub use graphene::Graphene;
pub use para::Para;
pub use refresh::IncreasedRefresh;
pub use spec::{MitigationKind, MitigationSpec};
pub use table::FlatCounterTable;
pub use trr::Trr;

use rh_core::{Geometry, RowAddr};

/// An action a mitigation asks the engine to perform on the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MitigationAction {
    /// Refresh one row (restore its charge).
    RefreshRow(RowAddr),
    /// Refresh the entire device.
    RefreshAll,
}

/// Reusable sink for the actions a mitigation emits on one activation.
///
/// The engine allocates one buffer per run and clears it before every
/// [`Mitigation::on_activate`] call, so the per-activation hot path never
/// allocates: on the overwhelmingly common "no action" path nothing is
/// written at all, and when actions do fire they land in the buffer's
/// retained capacity.
#[derive(Debug, Default, Clone)]
pub struct ActionBuf {
    actions: Vec<MitigationAction>,
}

impl ActionBuf {
    pub fn new() -> Self {
        Self::default()
    }

    /// Drop all buffered actions, retaining capacity. The engine calls this
    /// before each `on_activate`; mitigations only append.
    pub fn clear(&mut self) {
        self.actions.clear();
    }

    pub fn push(&mut self, action: MitigationAction) {
        self.actions.push(action);
    }

    /// Append a single-row refresh.
    pub fn refresh_row(&mut self, addr: RowAddr) {
        self.actions.push(MitigationAction::RefreshRow(addr));
    }

    /// Append a full-device refresh.
    pub fn refresh_all(&mut self) {
        self.actions.push(MitigationAction::RefreshAll);
    }

    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// The buffered actions, in emission order.
    pub fn actions(&self) -> &[MitigationAction] {
        &self.actions
    }
}

/// A RowHammer mitigation observing the activation stream.
///
/// The engine calls [`Mitigation::on_activate`] for every row activation
/// *before* the activation is applied to the device, and applies the
/// emitted actions immediately after it. `on_activate` is sink-style: the
/// caller passes a cleared [`ActionBuf`] and the mitigation appends any
/// refreshes to perform, so the no-action fast path writes nothing and the
/// hot path stays allocation-free. Implementations must be deterministic
/// given their construction-time seed.
pub trait Mitigation {
    /// Short stable identifier used in result tables (e.g. `"para(p=0.001)"`).
    fn name(&self) -> String;

    /// Observe one activation; append any refreshes to perform to `out`.
    /// `out` arrives cleared — implementations only append.
    fn on_activate(&mut self, addr: RowAddr, geom: &Geometry, out: &mut ActionBuf);

    /// Forget all accumulated state (e.g. at a refresh-window boundary).
    fn reset(&mut self);
}

/// Baseline: never intervenes.
#[derive(Debug, Default, Clone)]
pub struct NoMitigation;

impl Mitigation for NoMitigation {
    fn name(&self) -> String {
        "none".to_string()
    }

    fn on_activate(&mut self, _addr: RowAddr, _geom: &Geometry, _out: &mut ActionBuf) {}

    fn reset(&mut self) {}
}

/// Test/diagnostic adapter: run one `on_activate` through a scratch buffer
/// and return the emitted actions as an owned `Vec`.
pub fn collect_actions(
    mitigation: &mut dyn Mitigation,
    addr: RowAddr,
    geom: &Geometry,
) -> Vec<MitigationAction> {
    let mut buf = ActionBuf::new();
    mitigation.on_activate(addr, geom, &mut buf);
    buf.actions().to_vec()
}
