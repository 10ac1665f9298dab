//! The register port: the instrumentation boundary between the GPU driver
//! and whatever executes its register accesses.
//!
//! The paper's Clang plugin rewrites the Mali driver so that every register
//! accessor, lock operation, explicit delay, and externalization point calls
//! into DriverShim (§4.1, §6). In this reproduction the driver is written
//! directly against the [`RegPort`] trait, with the hooks placed by the same
//! rules the plugin uses:
//!
//! - reads return a [`RegVal`] that may be **symbolic** (unbound until the
//!   next commit) — the driver computes on it and may write it back;
//! - branching requires [`RegPort::resolve`], which is exactly the paper's
//!   control-dependency commit point;
//! - simple polling loops are expressed as a [`PollSpec`] so the shim can
//!   offload them (§4.3);
//! - `lock`/`unlock`/`delay_us`/`externalize` mark the kernel-API commit and
//!   speculation-stall points;
//! - `enter_hot`/`exit_hot` delimit the profiled hot functions outside of
//!   which deferral is disabled (§4.1 optimization).
//!
//! Two implementations exist: the native [`crate::direct::DirectPort`]
//! (CPU and GPU co-located — the paper's baseline and the record target's
//! physical side) and `grt-core`'s DriverShim (the contribution).

use grt_gpu::{PollResult, PollSpec};
use std::cell::Cell;
use std::fmt;
use std::rc::Rc;

/// A static source-location label for a register-access site.
///
/// Commit-history lookup for speculation is keyed by "the same driver
/// source location" (§4.2); the [`crate::loc!`] macro produces these.
pub type Loc = &'static str;

/// Produces the [`Loc`] of the call site.
#[macro_export]
macro_rules! loc {
    () => {
        concat!(file!(), ":", line!())
    };
}

/// A symbol slot: the placeholder for one deferred register read.
///
/// The shim binds the slot to a concrete value when the enclosing commit
/// completes (or, under speculation, to a *predicted* value immediately).
#[derive(Clone)]
pub struct SymSlot {
    value: Rc<Cell<Option<u32>>>,
    id: u64,
}

impl SymSlot {
    /// Creates an unbound slot with a fresh id.
    pub fn new(id: u64) -> Self {
        SymSlot {
            value: Rc::new(Cell::new(None)),
            id,
        }
    }

    /// Binds the slot to a concrete value (idempotent only by overwrite).
    pub fn bind(&self, v: u32) {
        self.value.set(Some(v));
    }

    /// The bound value, if any.
    pub fn get(&self) -> Option<u32> {
        self.value.get()
    }

    /// The slot's id (stable across clones).
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl fmt::Debug for SymSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.get() {
            Some(v) => write!(f, "S{}={v:#x}", self.id),
            None => write!(f, "S{}", self.id),
        }
    }
}

/// A speculation token: `true` while the prediction that produced a value
/// is still unvalidated. Shared by every [`RegVal`] derived from it.
#[derive(Clone)]
pub struct SpecToken(Rc<Cell<bool>>);

impl SpecToken {
    /// Creates a token in the *speculative* (unvalidated) state.
    pub fn new() -> Self {
        SpecToken(Rc::new(Cell::new(true)))
    }

    /// Marks the prediction validated; all derived values become clean.
    pub fn validate(&self) {
        self.0.set(false);
    }

    /// True while the underlying prediction is unvalidated.
    pub fn is_speculative(&self) -> bool {
        self.0.get()
    }
}

impl Default for SpecToken {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for SpecToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SpecToken({})",
            if self.is_speculative() { "spec" } else { "ok" }
        )
    }
}

#[derive(Clone, Debug)]
enum Expr {
    Const(u32),
    Sym(SymSlot),
    And(Rc<Expr>, Rc<Expr>),
    Or(Rc<Expr>, Rc<Expr>),
    Xor(Rc<Expr>, Rc<Expr>),
    Not(Rc<Expr>),
    Shl(Rc<Expr>, u32),
    Shr(Rc<Expr>, u32),
}

impl Expr {
    fn eval(&self) -> Option<u32> {
        Some(match self {
            Expr::Const(c) => *c,
            Expr::Sym(s) => s.get()?,
            Expr::And(a, b) => a.eval()? & b.eval()?,
            Expr::Or(a, b) => a.eval()? | b.eval()?,
            Expr::Xor(a, b) => a.eval()? ^ b.eval()?,
            Expr::Not(a) => !a.eval()?,
            Expr::Shl(a, n) => a.eval()?.wrapping_shl(*n),
            Expr::Shr(a, n) => a.eval()?.wrapping_shr(*n),
        })
    }
}

/// A register value: concrete or a symbolic expression over deferred reads.
///
/// The driver computes on `RegVal`s exactly as kbase computes on `u32`s;
/// the symbolic machinery is invisible until a branch needs a concrete
/// value, at which point [`RegPort::resolve`] commits.
///
/// # Examples
///
/// ```
/// use grt_driver::port::RegVal;
///
/// let v = RegVal::from(0xF0) | RegVal::from(0x0F);
/// assert_eq!(v.eval(), Some(0xFF));
/// ```
#[derive(Clone, Debug)]
pub struct RegVal {
    expr: Expr,
    taints: Vec<SpecToken>,
}

impl RegVal {
    /// A fresh symbolic value over `slot`.
    pub fn symbolic(slot: SymSlot) -> Self {
        RegVal {
            expr: Expr::Sym(slot),
            taints: Vec::new(),
        }
    }

    /// A symbolic value carrying a speculation taint.
    pub fn speculative(slot: SymSlot, token: SpecToken) -> Self {
        RegVal {
            expr: Expr::Sym(slot),
            taints: vec![token],
        }
    }

    /// Evaluates to a concrete value if every symbol is bound.
    pub fn eval(&self) -> Option<u32> {
        self.expr.eval()
    }

    /// True if the value still contains an unbound symbol.
    pub fn is_symbolic(&self) -> bool {
        self.eval().is_none()
    }

    /// True if the value depends on a still-unvalidated prediction.
    pub fn is_tainted(&self) -> bool {
        self.taints.iter().any(SpecToken::is_speculative)
    }

    /// The (live) speculation tokens this value depends on.
    pub fn live_taints(&self) -> Vec<SpecToken> {
        self.taints
            .iter()
            .filter(|t| t.is_speculative())
            .cloned()
            .collect()
    }

    fn bin(op: fn(Rc<Expr>, Rc<Expr>) -> Expr, a: RegVal, b: RegVal) -> RegVal {
        let mut taints = a.taints;
        taints.extend(b.taints);
        RegVal {
            expr: op(Rc::new(a.expr), Rc::new(b.expr)),
            taints,
        }
    }

    /// Bitwise NOT.
    ///
    /// Named methods rather than `std::ops` impls on purpose: shift
    /// amounts are plain constants in driver code, and a fallible symbolic
    /// value should not masquerade as a primitive integer.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> RegVal {
        RegVal {
            expr: Expr::Not(Rc::new(self.expr)),
            taints: self.taints,
        }
    }

    /// Left shift by a constant.
    #[allow(clippy::should_implement_trait)]
    pub fn shl(self, n: u32) -> RegVal {
        RegVal {
            expr: Expr::Shl(Rc::new(self.expr), n),
            taints: self.taints,
        }
    }

    /// Right shift by a constant.
    #[allow(clippy::should_implement_trait)]
    pub fn shr(self, n: u32) -> RegVal {
        RegVal {
            expr: Expr::Shr(Rc::new(self.expr), n),
            taints: self.taints,
        }
    }
}

impl From<u32> for RegVal {
    fn from(v: u32) -> Self {
        RegVal {
            expr: Expr::Const(v),
            taints: Vec::new(),
        }
    }
}

impl std::ops::BitAnd for RegVal {
    type Output = RegVal;
    fn bitand(self, rhs: RegVal) -> RegVal {
        RegVal::bin(Expr::And, self, rhs)
    }
}

impl std::ops::BitAnd<u32> for RegVal {
    type Output = RegVal;
    fn bitand(self, rhs: u32) -> RegVal {
        self & RegVal::from(rhs)
    }
}

impl std::ops::BitOr for RegVal {
    type Output = RegVal;
    fn bitor(self, rhs: RegVal) -> RegVal {
        RegVal::bin(Expr::Or, self, rhs)
    }
}

impl std::ops::BitOr<u32> for RegVal {
    type Output = RegVal;
    fn bitor(self, rhs: u32) -> RegVal {
        self | RegVal::from(rhs)
    }
}

impl std::ops::BitXor for RegVal {
    type Output = RegVal;
    fn bitxor(self, rhs: RegVal) -> RegVal {
        RegVal::bin(Expr::Xor, self, rhs)
    }
}

impl std::ops::BitXor<u32> for RegVal {
    type Output = RegVal;
    fn bitxor(self, rhs: u32) -> RegVal {
        self ^ RegVal::from(rhs)
    }
}

/// Kernel lock identities the driver uses (a small fixed set, as in kbase).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockId {
    /// `kbase_device::hwaccess_lock`.
    HwAccess,
    /// Power-management lock.
    Pm,
    /// MMU/page-table lock.
    Mmu,
    /// Job-scheduler lock.
    JsLock,
}

/// The driver↔shim boundary.
///
/// Implementations: `DirectPort` (native, synchronous) and DriverShim
/// (deferral + speculation + offload, in `grt-core`).
pub trait RegPort {
    /// Reads a GPU register; may return a symbolic value under deferral.
    fn read(&self, loc: Loc, offset: u32) -> RegVal;

    /// Writes a GPU register; the value may be symbolic.
    fn write(&self, loc: Loc, offset: u32, val: RegVal);

    /// Forces a concrete value (control-dependency commit point).
    fn resolve(&self, loc: Loc, val: &RegVal) -> u32;

    /// Executes a simple polling loop (offloadable, §4.3).
    fn poll(&self, loc: Loc, spec: PollSpec) -> PollResult;

    /// Driver explicit delay (`udelay`/`msleep` — commit point).
    fn delay_us(&self, us: u64);

    /// Kernel lock acquire (commit point).
    fn lock(&self, id: LockId);

    /// Kernel lock release (commit point; release consistency, §4.1).
    fn unlock(&self, id: LockId);

    /// Kernel API that externalizes state (`printk` — speculation stall).
    fn externalize(&self, what: &str);

    /// Control flow enters a profiled hot function.
    fn enter_hot(&self, name: &'static str);

    /// Control flow leaves a hot function (commit point).
    fn exit_hot(&self, name: &'static str);

    /// Convenience: resolve and test non-zero.
    fn truthy(&self, loc: Loc, val: &RegVal) -> bool {
        self.resolve(loc, val) != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concrete_arithmetic() {
        let v = (RegVal::from(0b1100) & 0b1010) | 0b0001;
        assert_eq!(v.eval(), Some(0b1001));
        let x = RegVal::from(1).shl(4).shr(1);
        assert_eq!(x.eval(), Some(8));
        assert_eq!((RegVal::from(0) ^ 0xFF).eval(), Some(0xFF));
        assert_eq!(RegVal::from(0).not().eval(), Some(u32::MAX));
    }

    #[test]
    fn symbolic_until_bound() {
        let slot = SymSlot::new(1);
        let v = RegVal::symbolic(slot.clone()) | 0x10;
        assert!(v.is_symbolic());
        assert_eq!(v.eval(), None);
        slot.bind(0x03);
        assert!(!v.is_symbolic());
        assert_eq!(v.eval(), Some(0x13));
    }

    #[test]
    fn binding_propagates_through_clones() {
        // Models Listing 1(a): qrk_mmu flows through driver state before
        // the commit binds it.
        let slot = SymSlot::new(2);
        let qrk = RegVal::symbolic(slot.clone());
        let stored = qrk.clone() | 0x10; // MMU_ALLOW_SNOOP_DISPARITY.
        let written_back = stored.clone();
        slot.bind(0x0F);
        assert_eq!(written_back.eval(), Some(0x1F));
    }

    #[test]
    fn taint_propagates_and_clears() {
        let slot = SymSlot::new(3);
        slot.bind(42); // Predicted value bound immediately.
        let token = SpecToken::new();
        let v = RegVal::speculative(slot, token.clone());
        let derived = (v & 0xFF) | 0x100;
        assert!(derived.is_tainted());
        assert_eq!(derived.live_taints().len(), 1);
        token.validate();
        assert!(!derived.is_tainted());
        assert!(derived.live_taints().is_empty());
    }

    #[test]
    fn taints_union_across_operands() {
        let (s1, s2) = (SymSlot::new(4), SymSlot::new(5));
        s1.bind(1);
        s2.bind(2);
        let t1 = SpecToken::new();
        let t2 = SpecToken::new();
        let v = RegVal::speculative(s1, t1.clone()) | RegVal::speculative(s2, t2.clone());
        assert_eq!(v.live_taints().len(), 2);
        t1.validate();
        assert_eq!(v.live_taints().len(), 1);
        t2.validate();
        assert!(!v.is_tainted());
    }

    #[test]
    fn loc_macro_is_unique_per_line() {
        let a = loc!();
        let b = loc!();
        assert_ne!(a, b);
        assert!(a.contains("port.rs"));
    }
}
