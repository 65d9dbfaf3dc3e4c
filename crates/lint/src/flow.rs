//! The flow pass: constant-propagation dataflow over the AST, driving
//! `rb_miri`'s public memory / value / borrow / race models.
//!
//! The corpus language is closed — no inputs, no real clock, no real
//! scheduler — so a dataflow analysis that propagates concrete constants
//! through the program's places is *exact* wherever it can keep going: a
//! defect it derives is a defect every execution exhibits. The pass walks
//! statements in evaluation order (the same order the oracle's interpreter
//! uses, including its top-level UB recovery, error cap and step budget, so
//! that finding *counts* line up with the oracle's error counts), checking
//! each memory effect against [`rb_miri::memory::Memory`] and each value
//! round-trip against [`rb_miri::value`] codecs.
//!
//! **Soundness discipline.** The oracle copies a spawned thread's locals in
//! declaration order, but the pass visits them in name order, so it does
//! not reproduce the *address layout* of thread-frame locals (or of any
//! allocation made after them) once a thread copies two or more. The pass
//! keeps a per-allocation `deterministic-base` bit; the moment an address
//! it may have laid out differently could be *observed*
//! numerically (pointer→int cast, `ptr_addr`, pointer comparison, an
//! alignment check stricter than the allocation's own alignment, pointer
//! arithmetic escaping its allocation after layout drift), the pass drops
//! to heuristic mode: later findings are [`Confidence::Heuristic`] and the
//! analysis reports incomplete. Sound findings emitted *before* that point
//! remain proven.

use crate::rules::rule_id_for_kind;
use crate::{Confidence, Finding};
use rb_lang::ast::{BinOp, Block, BuiltinKind, Expr, Lit, Program, Stmt, StmtPath, Ty, UnOp};
use rb_lang::check::{ty_align, ty_size, union_layout};
use rb_miri::borrows::RetagKind;
use rb_miri::memory::{AllocKind, Memory};
use rb_miri::race::{Access, AccessLog};
use rb_miri::value::{from_bytes, to_bytes, value_matches_ty, AllocId, BorTag, Pointer, Value};
use rb_miri::UbKind;
use std::collections::{BTreeSet, HashMap};

/// Diagnostic cap, mirroring the oracle's `MiriConfig::max_errors`.
pub const ERROR_CAP: usize = 8;
/// Step budget, mirroring the oracle's `MiriConfig::step_budget`.
pub const STEP_BUDGET: u64 = 200_000;
/// Call-depth limit, mirroring the oracle's `MiriConfig::max_call_depth`.
pub const MAX_CALL_DEPTH: usize = 64;

/// Runs the flow pass. Returns the findings (in discovery order — the same
/// order the oracle reports errors) and whether the analysis is complete
/// (sound findings == the oracle's exact error multiset).
#[must_use]
pub fn run(prog: &Program) -> (Vec<Finding>, bool) {
    let mut m = FlowMachine::new(prog);
    m.run();
    let complete = m.sound;
    (m.findings, complete)
}

enum Flow {
    Normal,
    Return(Value),
}

enum Exc {
    Ub(UbKind, String),
    Panic(UbKind, String),
    Abort,
    Stop(UbKind, String),
}

type EvalResult = Result<Value, Exc>;
type ExecResult = Result<Flow, Exc>;

#[derive(Clone, Debug)]
struct Local {
    alloc: AllocId,
    tag: BorTag,
    ty: Ty,
}

type Scope = HashMap<String, Local>;

struct Frame {
    scopes: Vec<Scope>,
    fn_idx: usize,
}

#[derive(Clone, Debug)]
struct PlaceRef {
    alloc: AllocId,
    offset: i64,
    tag: BorTag,
    ty: Ty,
}

struct PendingThread {
    env: Vec<(String, Ty, Value)>,
    body: Block,
    spawn_path: StmtPath,
}

struct FlowMachine<'p> {
    prog: &'p Program,
    mem: Memory,
    log: AccessLog,
    findings: Vec<Finding>,
    steps: u64,
    frames: Vec<Frame>,
    statics: HashMap<String, (AllocId, BorTag, Ty)>,
    pending: Vec<PendingThread>,
    locks_held: BTreeSet<u32>,
    thread: usize,
    next_thread: usize,
    main_concurrent: bool,
    current_path: StmtPath,
    /// Per-allocation: is the base address reproducible across oracle runs?
    det_base: Vec<bool>,
    /// Set once thread-frame layout may have drifted; every later
    /// allocation inherits a non-deterministic base.
    base_drift: bool,
    /// Exactness flag: true until a non-reproducible address is observed.
    sound: bool,
}

impl<'p> FlowMachine<'p> {
    fn new(prog: &'p Program) -> FlowMachine<'p> {
        FlowMachine {
            prog,
            mem: Memory::new(),
            log: AccessLog::new(),
            findings: Vec::new(),
            steps: 0,
            frames: Vec::new(),
            statics: HashMap::new(),
            pending: Vec::new(),
            locks_held: BTreeSet::new(),
            thread: 0,
            next_thread: 1,
            main_concurrent: false,
            current_path: StmtPath::default(),
            det_base: Vec::new(),
            base_drift: false,
            sound: true,
        }
    }

    // ---- soundness taint ---------------------------------------------------

    fn alloc_mem(&mut self, kind: AllocKind, size: usize, align: usize) -> (AllocId, BorTag, u64) {
        let out = self.mem.allocate(kind, size, align);
        self.det_base.push(!self.base_drift);
        out
    }

    fn det_of(&self, id: AllocId) -> bool {
        self.det_base.get(id.0 as usize).copied().unwrap_or(true)
    }

    /// A pointer's absolute address is about to be observed numerically.
    fn observe_addr(&mut self, prov: Option<(AllocId, BorTag)>) {
        if !self.base_drift {
            return;
        }
        if let Some((id, _)) = prov {
            if !self.det_of(id) {
                self.sound = false;
            }
        }
    }

    /// A value is about to be serialised where its raw address bytes could
    /// later be reinterpreted as data.
    fn observe_value(&mut self, v: &Value) {
        if !self.base_drift {
            return;
        }
        match v {
            Value::Ptr(p) | Value::Ref(p) | Value::Boxed(p) => self.observe_addr(p.prov),
            Value::Tuple(xs) | Value::Array(xs) => {
                for x in xs {
                    self.observe_value(x);
                }
            }
            _ => {}
        }
    }

    /// An access with `required_align` stricter than the allocation's own
    /// alignment depends on the absolute base address.
    fn observe_align(&mut self, id: AllocId, required_align: usize) {
        if !self.base_drift || required_align <= 1 {
            return;
        }
        if let Some(a) = self.mem.alloc(id) {
            if required_align > a.align && !self.det_of(id) {
                self.sound = false;
            }
        }
    }

    // ---- recording ---------------------------------------------------------

    fn record(&mut self, kind: UbKind, message: String) {
        if self.findings.len() < ERROR_CAP {
            self.findings.push(Finding {
                class: kind.class(),
                kind,
                path: Some(self.current_path.clone()),
                confidence: if self.sound {
                    Confidence::Sound
                } else {
                    Confidence::Heuristic
                },
                rule: rule_id_for_kind(kind),
                message,
            });
        }
    }

    fn run(&mut self) {
        for s in &self.prog.statics {
            let size = ty_size(self.prog, &s.ty).unwrap_or(8);
            let align = ty_align(self.prog, &s.ty).unwrap_or(8);
            let (id, tag, _) = self.alloc_mem(AllocKind::Static, size, align);
            let v = match &s.init {
                Lit::Unit => Value::Unit,
                Lit::Bool(b) => Value::Bool(*b),
                Lit::Int(v, t) => Value::Int(*v, *t),
            };
            if let Ok(bytes) = to_bytes(self.prog, &v, &s.ty) {
                let _ = self.mem.write_bytes(id, tag, 0, &bytes, 1);
            }
            self.statics.insert(s.name.clone(), (id, tag, s.ty.clone()));
        }
        let Some(main_idx) = self.prog.funcs.iter().position(|f| f.name == "main") else {
            self.record(UbKind::IllFormed, "no main function".into());
            return;
        };
        match self.call_function(main_idx, Vec::new()) {
            Ok(_) => {}
            Err(Exc::Ub(k, m) | Exc::Panic(k, m)) => self.record(k, m),
            Err(Exc::Stop(k, m)) => {
                if k != UbKind::IllFormed {
                    self.record(k, m);
                }
                return;
            }
            Err(Exc::Abort) => return,
        }
        if let Err(e) = self.join_all() {
            match e {
                Exc::Ub(k, m) | Exc::Panic(k, m) | Exc::Stop(k, m) => self.record(k, m),
                Exc::Abort => {}
            }
        }
        self.main_concurrent = false;
        let races = self.log.detect_races(&self.mem);
        for r in races {
            if self.findings.len() >= ERROR_CAP {
                break;
            }
            self.findings.push(Finding {
                class: r.kind.class(),
                kind: r.kind,
                path: r.path.clone(),
                confidence: if self.sound {
                    Confidence::Sound
                } else {
                    Confidence::Heuristic
                },
                rule: rule_id_for_kind(r.kind),
                message: r.message,
            });
        }
        for id in self.mem.live_heap_allocs().into_iter().take(3) {
            if self.findings.len() >= ERROR_CAP {
                break;
            }
            let size = self.mem.alloc(id).map_or(0, |a| a.size);
            self.findings.push(Finding {
                class: UbKind::Leak.class(),
                kind: UbKind::Leak,
                path: None,
                confidence: if self.sound {
                    Confidence::Sound
                } else {
                    Confidence::Heuristic
                },
                rule: rule_id_for_kind(UbKind::Leak),
                message: format!("memory leaked: {size}-byte heap allocation never freed"),
            });
        }
    }

    fn step(&mut self) -> Result<(), Exc> {
        self.steps += 1;
        if self.steps > STEP_BUDGET {
            return Err(Exc::Stop(
                UbKind::ResourceExhausted,
                "analysis step budget exceeded (possible infinite loop)".into(),
            ));
        }
        Ok(())
    }

    fn err_cap_check(&self) -> Result<(), Exc> {
        if self.findings.len() >= ERROR_CAP {
            Err(Exc::Stop(UbKind::IllFormed, "error cap reached".into()))
        } else {
            Ok(())
        }
    }

    // ---- frames and locals ------------------------------------------------

    fn frame(&mut self) -> &mut Frame {
        self.frames.last_mut().expect("at least one frame")
    }

    fn lookup_local(&self, name: &str) -> Option<&Local> {
        let f = self.frames.last()?;
        f.scopes.iter().rev().find_map(|s| s.get(name))
    }

    fn push_scope(&mut self) {
        self.frame().scopes.push(Scope::new());
    }

    fn pop_scope(&mut self) {
        if let Some(scope) = self.frame().scopes.pop() {
            for local in scope.values() {
                self.mem.kill_stack_slot(local.alloc);
            }
        }
    }

    fn declare_local(&mut self, name: &str, ty: Ty, value: Value) -> Result<(), Exc> {
        let size = ty_size(self.prog, &ty)
            .ok_or_else(|| Exc::Ub(UbKind::IllFormed, format!("unsized type for `{name}`")))?;
        let align = ty_align(self.prog, &ty).unwrap_or(1);
        let (alloc, tag, _) = self.alloc_mem(AllocKind::Stack, size.max(1), align);
        self.observe_value(&value);
        let bytes = to_bytes(self.prog, &value, &ty)
            .map_err(|k| self.ub(k, "initialiser does not fit declared type"))?;
        self.mem
            .write_bytes(alloc, tag, 0, &bytes, 1)
            .map_err(|k| self.ub(k, "writing initial value"))?;
        self.frame()
            .scopes
            .last_mut()
            .expect("scope present")
            .insert(name.to_owned(), Local { alloc, tag, ty });
        Ok(())
    }

    fn ub(&self, kind: UbKind, what: &str) -> Exc {
        let msg = match kind {
            UbKind::UseAfterFree => format!("{what}: pointer to freed allocation (use-after-free)"),
            UbKind::UseAfterScope => {
                format!("{what}: pointer used after its target's scope ended (dangling)")
            }
            UbKind::OutOfBounds => format!("{what}: pointer out of bounds of its allocation"),
            UbKind::UnalignedAccess => {
                format!("{what}: accessing memory with insufficient alignment")
            }
            UbKind::UninitRead => format!("{what}: reading uninitialised memory"),
            UbKind::NoProvenance => {
                format!("{what}: dereferencing an integer-derived pointer without provenance")
            }
            UbKind::StackBorrowViolation => {
                format!("{what}: tag does not exist in the borrow stack (stacked borrows)")
            }
            UbKind::ConflictingMutBorrows => {
                format!("{what}: conflicting exclusive reborrows of the same location")
            }
            UbKind::WriteThroughShared => {
                format!("{what}: write through a shared (read-only) borrow")
            }
            UbKind::InvalidValue => format!("{what}: constructing an invalid value for the type"),
            UbKind::InvalidRef => format!("{what}: constructing an invalid reference"),
            UbKind::TransmuteSize => {
                format!("{what}: transmute between types of different sizes")
            }
            UbKind::DoubleFree => format!("{what}: allocation freed twice (double free)"),
            UbKind::BadDealloc => {
                format!("{what}: deallocating with a layout the allocation was not created with")
            }
            UbKind::CrossAllocation => {
                format!("{what}: pointer arithmetic escaped into a different allocation")
            }
            UbKind::UncheckedOverflow => {
                format!("{what}: unchecked arithmetic overflowed (contract violated)")
            }
            UbKind::Precondition => {
                format!("{what}: the unsafe function's documented precondition was violated")
            }
            UbKind::InvalidFnPtr => {
                format!("{what}: calling a pointer that does not point to a function")
            }
            UbKind::FnSigMismatch => {
                format!("{what}: calling a function through a mismatched signature")
            }
            _ => format!("{what}: {kind:?}"),
        };
        Exc::Ub(kind, msg)
    }

    // ---- memory access helpers ---------------------------------------------

    fn record_access(
        &mut self,
        alloc: AllocId,
        offset: i64,
        len: usize,
        write: bool,
        atomic: bool,
    ) {
        let Some(a) = self.mem.alloc(alloc) else {
            return;
        };
        if !matches!(a.kind, AllocKind::Heap | AllocKind::Static) {
            return;
        }
        let concurrent = self.thread != 0 || self.main_concurrent;
        self.log.record(Access {
            alloc,
            offset: offset.max(0) as usize,
            len,
            thread: self.thread,
            write,
            atomic,
            locks: self.locks_held.clone(),
            concurrent,
            path: Some(self.current_path.clone()),
        });
    }

    fn typed_read(&mut self, place: &PlaceRef, atomic: bool) -> EvalResult {
        let size = ty_size(self.prog, &place.ty)
            .ok_or_else(|| self.ub(UbKind::IllFormed, "read of unsized type"))?;
        let align = ty_align(self.prog, &place.ty).unwrap_or(1);
        self.observe_align(place.alloc, align);
        let bytes = self
            .mem
            .read_bytes(place.alloc, place.tag, place.offset, size, align)
            .map_err(|k| self.ub(k, "memory read"))?;
        self.record_access(place.alloc, place.offset, size.max(1), false, atomic);
        from_bytes(self.prog, &bytes, &place.ty).map_err(|k| self.ub(k, "typed read"))
    }

    fn typed_write(&mut self, place: &PlaceRef, value: &Value, atomic: bool) -> Result<(), Exc> {
        self.observe_value(value);
        let bytes = to_bytes(self.prog, value, &place.ty).map_err(|k| self.ub(k, "typed write"))?;
        let align = ty_align(self.prog, &place.ty).unwrap_or(1);
        self.observe_align(place.alloc, align);
        self.mem
            .write_bytes(place.alloc, place.tag, place.offset, &bytes, align)
            .map_err(|k| self.ub(k, "memory write"))?;
        self.record_access(place.alloc, place.offset, bytes.len().max(1), true, atomic);
        Ok(())
    }

    fn place_from_pointer(&mut self, p: &Pointer, what: &str) -> Result<PlaceRef, Exc> {
        let Some((alloc, tag)) = p.prov else {
            return Err(self.ub(UbKind::NoProvenance, what));
        };
        let a = self
            .mem
            .alloc(alloc)
            .ok_or_else(|| self.ub(UbKind::UseAfterFree, what))?;
        let offset = p.addr as i64 - a.base as i64;
        Ok(PlaceRef {
            alloc,
            offset,
            tag,
            ty: p.pointee.clone(),
        })
    }

    // ---- place evaluation ---------------------------------------------------

    fn eval_place(&mut self, e: &Expr) -> Result<PlaceRef, Exc> {
        self.step()?;
        match e {
            Expr::Var(name) => {
                if let Some(l) = self.lookup_local(name) {
                    Ok(PlaceRef {
                        alloc: l.alloc,
                        offset: 0,
                        tag: l.tag,
                        ty: l.ty.clone(),
                    })
                } else {
                    Err(Exc::Ub(
                        UbKind::IllFormed,
                        format!("unknown place `{name}`"),
                    ))
                }
            }
            Expr::StaticRef(name) => {
                let (alloc, tag, ty) = self.statics.get(name).cloned().ok_or_else(|| {
                    Exc::Ub(UbKind::IllFormed, format!("unknown static `{name}`"))
                })?;
                Ok(PlaceRef {
                    alloc,
                    offset: 0,
                    tag,
                    ty,
                })
            }
            Expr::Deref(inner) => {
                let v = self.eval(inner)?;
                match v {
                    Value::Ptr(p) | Value::Ref(p) | Value::Boxed(p) => {
                        self.place_from_pointer(&p, "dereference")
                    }
                    other => Err(Exc::Ub(
                        UbKind::IllFormed,
                        format!("cannot dereference {}", other.render()),
                    )),
                }
            }
            Expr::Index(base, idx) => {
                let mut place = self.eval_place(base)?;
                while let Ty::Ref(inner, _) | Ty::Boxed(inner) = place.ty.clone() {
                    let v = self.typed_read(&place, false)?;
                    let p = v
                        .as_pointer()
                        .cloned()
                        .ok_or_else(|| self.ub(UbKind::InvalidRef, "auto-deref"))?;
                    place = self.place_from_pointer(&p.retype((*inner).clone()), "auto-deref")?;
                }
                let Ty::Array(elem, n) = place.ty.clone() else {
                    return Err(Exc::Ub(UbKind::IllFormed, "indexing a non-array".into()));
                };
                let iv = self
                    .eval(idx)?
                    .as_int()
                    .ok_or_else(|| Exc::Ub(UbKind::IllFormed, "non-integer index".into()))?;
                if iv < 0 || iv as usize >= n {
                    return Err(Exc::Panic(
                        UbKind::PanicIndex,
                        format!("index out of bounds: the len is {n} but the index is {iv}"),
                    ));
                }
                let es = ty_size(self.prog, &elem)
                    .ok_or_else(|| self.ub(UbKind::IllFormed, "unsized element"))?;
                Ok(PlaceRef {
                    alloc: place.alloc,
                    offset: place.offset + (iv as i64) * es as i64,
                    tag: place.tag,
                    ty: (*elem).clone(),
                })
            }
            Expr::Field(base, k) => {
                let place = self.eval_place(base)?;
                let Ty::Tuple(ts) = place.ty.clone() else {
                    return Err(Exc::Ub(
                        UbKind::IllFormed,
                        "field access on non-tuple".into(),
                    ));
                };
                if *k >= ts.len() {
                    return Err(Exc::Ub(
                        UbKind::IllFormed,
                        "tuple field out of range".into(),
                    ));
                }
                let mut off = 0i64;
                for t in ts.iter().take(*k) {
                    off += ty_size(self.prog, t).unwrap_or(0) as i64;
                }
                Ok(PlaceRef {
                    alloc: place.alloc,
                    offset: place.offset + off,
                    tag: place.tag,
                    ty: ts[*k].clone(),
                })
            }
            Expr::UnionField(base, fname) => {
                let place = self.eval_place(base)?;
                let Ty::Union(uname) = place.ty.clone() else {
                    return Err(Exc::Ub(
                        UbKind::IllFormed,
                        "union field on non-union".into(),
                    ));
                };
                let def = self
                    .prog
                    .union_def(&uname)
                    .ok_or_else(|| Exc::Ub(UbKind::IllFormed, "unknown union".into()))?;
                let (_, fty) = def
                    .fields
                    .iter()
                    .find(|(n, _)| n == fname)
                    .ok_or_else(|| Exc::Ub(UbKind::IllFormed, "unknown union field".into()))?;
                Ok(PlaceRef {
                    alloc: place.alloc,
                    offset: place.offset,
                    tag: place.tag,
                    ty: fty.clone(),
                })
            }
            other => Err(Exc::Ub(
                UbKind::IllFormed,
                format!(
                    "not a place expression: {}",
                    rb_lang::printer::print_expr(other)
                ),
            )),
        }
    }

    // ---- expression evaluation ----------------------------------------------

    #[allow(clippy::too_many_lines)]
    fn eval(&mut self, e: &Expr) -> EvalResult {
        self.step()?;
        match e {
            Expr::Lit(Lit::Unit) => Ok(Value::Unit),
            Expr::Lit(Lit::Bool(b)) => Ok(Value::Bool(*b)),
            Expr::Lit(Lit::Int(v, t)) => Ok(Value::Int(*v, *t)),
            Expr::Var(name) => {
                if self.lookup_local(name).is_some() {
                    let place = self.eval_place(e)?;
                    self.typed_read(&place, false)
                } else if let Some(idx) = self.prog.funcs.iter().position(|f| &f.name == name) {
                    Ok(Value::FnPtr(Some(idx)))
                } else {
                    Err(Exc::Ub(
                        UbKind::IllFormed,
                        format!("unknown variable `{name}`"),
                    ))
                }
            }
            Expr::StaticRef(_) => {
                let place = self.eval_place(e)?;
                self.typed_read(&place, false)
            }
            Expr::Unary(op, a) => {
                let v = self.eval(a)?;
                match (op, v) {
                    (UnOp::Neg, Value::Int(v, t)) => {
                        let r = -v;
                        if t.in_range(r) {
                            Ok(Value::Int(r, t))
                        } else {
                            Err(Exc::Panic(
                                UbKind::PanicOverflow,
                                "attempt to negate with overflow".into(),
                            ))
                        }
                    }
                    (UnOp::Not, Value::Bool(b)) => Ok(Value::Bool(!b)),
                    (UnOp::Not, Value::Int(v, t)) => Ok(Value::Int(t.wrap(!v), t)),
                    _ => Err(Exc::Ub(UbKind::IllFormed, "bad unary operand".into())),
                }
            }
            Expr::Binary(op, a, b) => self.eval_binary(*op, a, b),
            Expr::Cast(a, to) => {
                let v = self.eval(a)?;
                self.eval_cast(v, to)
            }
            Expr::AddrOf(m, place_e) => {
                let place = self.eval_place(place_e)?;
                let kind = if m.is_mut() {
                    RetagKind::Mut
                } else {
                    RetagKind::Shared
                };
                let tag = self
                    .mem
                    .retag(place.alloc, place.tag, kind)
                    .map_err(|k| self.ub(k, "reference retag"))?;
                let base = self.mem.alloc(place.alloc).expect("live").base;
                Ok(Value::Ref(Pointer::with_prov(
                    place.alloc,
                    tag,
                    base.wrapping_add(place.offset as u64),
                    place.ty,
                )))
            }
            Expr::RawAddrOf(_, place_e) => {
                let place = self.eval_place(place_e)?;
                let tag = self
                    .mem
                    .retag(place.alloc, place.tag, RetagKind::Raw)
                    .map_err(|k| self.ub(k, "raw-pointer retag"))?;
                let base = self.mem.alloc(place.alloc).expect("live").base;
                Ok(Value::Ptr(Pointer::with_prov(
                    place.alloc,
                    tag,
                    base.wrapping_add(place.offset as u64),
                    place.ty,
                )))
            }
            Expr::Deref(_) | Expr::Index(..) | Expr::Field(..) | Expr::UnionField(..) => {
                let place = self.eval_place(e)?;
                self.typed_read(&place, false)
            }
            Expr::Tuple(xs) => {
                let mut out = Vec::with_capacity(xs.len());
                for x in xs {
                    out.push(self.eval(x)?);
                }
                Ok(Value::Tuple(out))
            }
            Expr::ArrayLit(xs) => {
                let mut out = Vec::with_capacity(xs.len());
                for x in xs {
                    out.push(self.eval(x)?);
                }
                Ok(Value::Array(out))
            }
            Expr::ArrayRepeat(v, n) => {
                let val = self.eval(v)?;
                Ok(Value::Array(vec![val; *n]))
            }
            Expr::Call(name, args) => {
                if let Some(idx) = self.prog.funcs.iter().position(|f| &f.name == name) {
                    let mut vals = Vec::with_capacity(args.len());
                    for a in args {
                        vals.push(self.eval(a)?);
                    }
                    self.call_function(idx, vals)
                } else if self.lookup_local(name).is_some() {
                    let callee = self.eval(&Expr::Var(name.clone()))?;
                    self.call_value(callee, args)
                } else {
                    Err(Exc::Ub(
                        UbKind::IllFormed,
                        format!("unknown function `{name}`"),
                    ))
                }
            }
            Expr::CallPtr(c, args) => {
                let callee = self.eval(c)?;
                self.call_value(callee, args)
            }
            Expr::Builtin(b, tys, args) => self.eval_builtin(*b, tys, args),
            Expr::UnionLit(uname, fname, v) => {
                let def = self
                    .prog
                    .union_def(uname)
                    .ok_or_else(|| Exc::Ub(UbKind::IllFormed, "unknown union".into()))?;
                let (_, fty) = def
                    .fields
                    .iter()
                    .find(|(n, _)| n == fname)
                    .ok_or_else(|| Exc::Ub(UbKind::IllFormed, "unknown union field".into()))?
                    .clone();
                let val = self.eval(v)?;
                let mut bytes =
                    to_bytes(self.prog, &val, &fty).map_err(|k| self.ub(k, "union literal"))?;
                let (size, _) = union_layout(self.prog, uname)
                    .ok_or_else(|| self.ub(UbKind::IllFormed, "union layout"))?;
                bytes.resize(size, rb_miri::value::AbByte::Uninit);
                Ok(Value::Union {
                    name: uname.clone(),
                    bytes,
                })
            }
        }
    }

    fn eval_binary(&mut self, op: BinOp, a: &Expr, b: &Expr) -> EvalResult {
        if matches!(op, BinOp::And | BinOp::Or) {
            let av = self
                .eval(a)?
                .as_bool()
                .ok_or_else(|| Exc::Ub(UbKind::IllFormed, "non-bool logic operand".into()))?;
            return match (op, av) {
                (BinOp::And, false) => Ok(Value::Bool(false)),
                (BinOp::Or, true) => Ok(Value::Bool(true)),
                _ => {
                    let bv = self.eval(b)?.as_bool().ok_or_else(|| {
                        Exc::Ub(UbKind::IllFormed, "non-bool logic operand".into())
                    })?;
                    Ok(Value::Bool(bv))
                }
            };
        }
        let av = self.eval(a)?;
        let bv = self.eval(b)?;
        if op.is_comparison() {
            return self.compare(op, &av, &bv);
        }
        let (x, t) = match &av {
            Value::Int(v, t) => (*v, *t),
            _ => {
                return Err(Exc::Ub(
                    UbKind::IllFormed,
                    "non-integer arithmetic operand".into(),
                ))
            }
        };
        let y = bv
            .as_int()
            .ok_or_else(|| Exc::Ub(UbKind::IllFormed, "non-integer arithmetic operand".into()))?;
        let r = match op {
            BinOp::Add => x.checked_add(y),
            BinOp::Sub => x.checked_sub(y),
            BinOp::Mul => x.checked_mul(y),
            BinOp::Div => {
                if y == 0 {
                    return Err(Exc::Panic(
                        UbKind::PanicDivZero,
                        "attempt to divide by zero".into(),
                    ));
                }
                x.checked_div(y)
            }
            BinOp::Rem => {
                if y == 0 {
                    return Err(Exc::Panic(
                        UbKind::PanicDivZero,
                        "attempt to calculate the remainder with a divisor of zero".into(),
                    ));
                }
                x.checked_rem(y)
            }
            BinOp::BitAnd => Some(x & y),
            BinOp::BitOr => Some(x | y),
            BinOp::BitXor => Some(x ^ y),
            BinOp::Shl => {
                if y < 0 || y as u32 >= (t.size() * 8) as u32 {
                    return Err(Exc::Panic(
                        UbKind::PanicOverflow,
                        "attempt to shift left with overflow".into(),
                    ));
                }
                Some(t.wrap(x << y))
            }
            BinOp::Shr => {
                if y < 0 || y as u32 >= (t.size() * 8) as u32 {
                    return Err(Exc::Panic(
                        UbKind::PanicOverflow,
                        "attempt to shift right with overflow".into(),
                    ));
                }
                Some(x >> y)
            }
            _ => unreachable!("comparisons handled above"),
        };
        match r {
            Some(v) if t.in_range(v) => Ok(Value::Int(v, t)),
            Some(v)
                if matches!(
                    op,
                    BinOp::BitAnd | BinOp::BitOr | BinOp::BitXor | BinOp::Shl | BinOp::Shr
                ) =>
            {
                Ok(Value::Int(t.wrap(v), t))
            }
            _ => Err(Exc::Panic(
                UbKind::PanicOverflow,
                format!("attempt to {op:?} with overflow").to_lowercase(),
            )),
        }
    }

    fn compare(&mut self, op: BinOp, a: &Value, b: &Value) -> EvalResult {
        let ord = match (a, b) {
            (Value::Int(x, _), Value::Int(y, _)) => x.partial_cmp(y),
            (Value::Bool(x), Value::Bool(y)) => x.partial_cmp(y),
            (Value::Unit, Value::Unit) => Some(std::cmp::Ordering::Equal),
            _ => match (a.as_pointer(), b.as_pointer()) {
                (Some(p), Some(q)) => {
                    self.observe_addr(p.prov);
                    self.observe_addr(q.prov);
                    p.addr.partial_cmp(&q.addr)
                }
                _ => None,
            },
        };
        let Some(ord) = ord else {
            return Err(Exc::Ub(UbKind::IllFormed, "incomparable values".into()));
        };
        let r = match op {
            BinOp::Eq => ord == std::cmp::Ordering::Equal,
            BinOp::Ne => ord != std::cmp::Ordering::Equal,
            BinOp::Lt => ord == std::cmp::Ordering::Less,
            BinOp::Le => ord != std::cmp::Ordering::Greater,
            BinOp::Gt => ord == std::cmp::Ordering::Greater,
            BinOp::Ge => ord != std::cmp::Ordering::Less,
            _ => unreachable!(),
        };
        Ok(Value::Bool(r))
    }

    fn eval_cast(&mut self, v: Value, to: &Ty) -> EvalResult {
        match (v, to) {
            (Value::Int(x, _), Ty::Int(t)) => Ok(Value::Int(t.wrap(x), *t)),
            (Value::Bool(b), Ty::Int(t)) => Ok(Value::Int(i128::from(b), *t)),
            (Value::Ptr(p) | Value::Ref(p) | Value::Boxed(p), Ty::Int(t)) => {
                self.observe_addr(p.prov);
                Ok(Value::Int(t.wrap(p.addr as i128), *t))
            }
            (Value::FnPtr(idx), Ty::Int(t)) => Ok(Value::Int(
                t.wrap(idx.map_or(0, rb_miri::value::fn_ptr_addr) as i128),
                *t,
            )),
            (Value::Int(x, _), Ty::RawPtr(inner, _)) => {
                Ok(Value::Ptr(Pointer::from_addr(x as u64, (**inner).clone())))
            }
            (Value::Ptr(p), Ty::RawPtr(inner, _)) => Ok(Value::Ptr(p.retype((**inner).clone()))),
            (Value::Ref(p) | Value::Boxed(p), Ty::RawPtr(inner, _)) => {
                if let Some((alloc, tag)) = p.prov {
                    let fresh = self
                        .mem
                        .retag(alloc, tag, RetagKind::Raw)
                        .map_err(|k| self.ub(k, "ref-to-raw cast"))?;
                    Ok(Value::Ptr(Pointer::with_prov(
                        alloc,
                        fresh,
                        p.addr,
                        (**inner).clone(),
                    )))
                } else {
                    Ok(Value::Ptr(p.retype((**inner).clone())))
                }
            }
            (Value::FnPtr(i), Ty::FnPtr(..)) => Ok(Value::FnPtr(i)),
            (v, to) => Err(Exc::Ub(
                UbKind::IllFormed,
                format!(
                    "unsupported cast of {} to {}",
                    v.render(),
                    rb_lang::printer::print_ty(to)
                ),
            )),
        }
    }

    fn call_value(&mut self, callee: Value, args: &[Expr]) -> EvalResult {
        let mut vals = Vec::with_capacity(args.len());
        for a in args {
            vals.push(self.eval(a)?);
        }
        match callee {
            Value::FnPtr(Some(idx)) => {
                let f = &self.prog.funcs[idx];
                if f.params.len() != vals.len()
                    || !f
                        .params
                        .iter()
                        .zip(&vals)
                        .all(|((_, t), v)| value_matches_ty(v, t))
                {
                    return Err(Exc::Ub(
                        UbKind::FnSigMismatch,
                        format!(
                            "calling `{}` through a pointer with mismatched signature",
                            f.name
                        ),
                    ));
                }
                self.call_function(idx, vals)
            }
            Value::FnPtr(None) => Err(Exc::Ub(
                UbKind::InvalidFnPtr,
                "calling a function pointer forged from a non-function address".into(),
            )),
            other => Err(Exc::Ub(
                UbKind::IllFormed,
                format!("cannot call {}", other.render()),
            )),
        }
    }

    fn call_function(&mut self, idx: usize, args: Vec<Value>) -> EvalResult {
        if self.frames.len() >= MAX_CALL_DEPTH {
            return Err(Exc::Stop(
                UbKind::ResourceExhausted,
                "call depth exceeded".into(),
            ));
        }
        let f = &self.prog.funcs[idx];
        if f.params.len() != args.len() {
            return Err(Exc::Ub(
                UbKind::IllFormed,
                format!("`{}` called with wrong arity", f.name),
            ));
        }
        self.frames.push(Frame {
            scopes: vec![Scope::new()],
            fn_idx: idx,
        });
        let params: Vec<(String, Ty)> = f.params.clone();
        let body = f.body.clone();
        let mut result = Ok(Value::Unit);
        for ((name, ty), v) in params.into_iter().zip(args) {
            if let Err(e) = self.declare_local(&name, ty, v) {
                result = Err(e);
                break;
            }
        }
        if result.is_ok() {
            let caller = self.current_path.clone();
            result = self.exec_fn_body(&body, idx).map(|flow| {
                // What happens after the call belongs to the caller's
                // statement, as in the oracle.
                self.current_path = caller;
                match flow {
                    Flow::Return(v) => v,
                    Flow::Normal => Value::Unit,
                }
            });
        }
        if let Some(frame) = self.frames.pop() {
            for scope in frame.scopes {
                for local in scope.values() {
                    self.mem.kill_stack_slot(local.alloc);
                }
            }
        }
        result
    }

    fn exec_fn_body(&mut self, body: &Block, fn_idx: usize) -> ExecResult {
        for (i, s) in body.stmts.iter().enumerate() {
            self.err_cap_check()?;
            self.current_path = StmtPath::top(fn_idx, i);
            match self.exec_stmt(s) {
                Ok(Flow::Normal) => {}
                Ok(Flow::Return(v)) => return Ok(Flow::Return(v)),
                Err(Exc::Ub(k, m)) => {
                    self.record(k, m);
                }
                Err(Exc::Panic(k, m)) => {
                    self.record(k, m);
                    return Ok(Flow::Normal);
                }
                Err(e @ (Exc::Stop(..) | Exc::Abort)) => return Err(e),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_block(&mut self, b: &Block) -> ExecResult {
        for s in &b.stmts {
            match self.exec_stmt(s)? {
                Flow::Normal => {}
                Flow::Return(v) => return Ok(Flow::Return(v)),
            }
        }
        Ok(Flow::Normal)
    }

    #[allow(clippy::too_many_lines)]
    fn exec_stmt(&mut self, s: &Stmt) -> ExecResult {
        self.step()?;
        match s {
            Stmt::Let { name, ty, init } => {
                let v = self.eval(init)?;
                self.declare_local(name, ty.clone(), v)?;
                Ok(Flow::Normal)
            }
            Stmt::Assign { place, value } => {
                let v = self.eval(value)?;
                let p = self.eval_place(place)?;
                self.typed_write(&p, &v, false)?;
                Ok(Flow::Normal)
            }
            Stmt::Expr(e) => {
                self.eval(e)?;
                Ok(Flow::Normal)
            }
            Stmt::Unsafe(b) | Stmt::Scope(b) => {
                self.push_scope();
                let r = self.exec_block(b);
                self.pop_scope();
                r
            }
            Stmt::If {
                cond,
                then_blk,
                else_blk,
            } => {
                let c = self
                    .eval(cond)?
                    .as_bool()
                    .ok_or_else(|| Exc::Ub(UbKind::IllFormed, "non-bool condition".into()))?;
                if c {
                    self.push_scope();
                    let r = self.exec_block(then_blk);
                    self.pop_scope();
                    r
                } else if let Some(e) = else_blk {
                    self.push_scope();
                    let r = self.exec_block(e);
                    self.pop_scope();
                    r
                } else {
                    Ok(Flow::Normal)
                }
            }
            Stmt::While { cond, body } => {
                loop {
                    self.step()?;
                    let c = self
                        .eval(cond)?
                        .as_bool()
                        .ok_or_else(|| Exc::Ub(UbKind::IllFormed, "non-bool condition".into()))?;
                    if !c {
                        break;
                    }
                    self.push_scope();
                    let r = self.exec_block(body);
                    self.pop_scope();
                    match r? {
                        Flow::Normal => {}
                        ret @ Flow::Return(_) => return Ok(ret),
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Assert { cond, msg } => {
                let c = self
                    .eval(cond)?
                    .as_bool()
                    .ok_or_else(|| Exc::Ub(UbKind::IllFormed, "non-bool assertion".into()))?;
                if c {
                    Ok(Flow::Normal)
                } else {
                    Err(Exc::Panic(
                        UbKind::PanicAssert,
                        format!("assertion failed: {msg}"),
                    ))
                }
            }
            Stmt::Return(e) => {
                let v = match e {
                    Some(e) => self.eval(e)?,
                    None => Value::Unit,
                };
                Ok(Flow::Return(v))
            }
            Stmt::Spawn(b) => {
                // The oracle copies visible locals in declaration order;
                // this pass's scopes are hash maps, so collect per scope in
                // name order (the names, types and values read are the same
                // set either way).
                let mut names: Vec<(String, Ty)> = Vec::new();
                if let Some(f) = self.frames.last() {
                    for s in &f.scopes {
                        let mut entries: Vec<(String, Ty)> =
                            s.iter().map(|(n, l)| (n.clone(), l.ty.clone())).collect();
                        entries.sort_by(|x, y| x.0.cmp(&y.0));
                        names.extend(entries);
                    }
                }
                let mut env = Vec::with_capacity(names.len());
                let mut first_err: Option<Exc> = None;
                let mut err_count = 0usize;
                for (n, t) in names {
                    let r = self
                        .eval_place(&Expr::Var(n.clone()))
                        .and_then(|place| self.typed_read(&place, false));
                    match r {
                        Ok(v) => env.push((n, t, v)),
                        Err(e) => {
                            err_count += 1;
                            if first_err.is_none() {
                                first_err = Some(e);
                            }
                        }
                    }
                }
                if let Some(e) = first_err {
                    // Which failing local the oracle hits first depends on
                    // declaration order when several could fail.
                    if err_count > 1 {
                        self.sound = false;
                    }
                    return Err(e);
                }
                self.pending.push(PendingThread {
                    env,
                    body: b.clone(),
                    spawn_path: self.current_path.clone(),
                });
                self.main_concurrent = true;
                Ok(Flow::Normal)
            }
            Stmt::JoinAll => {
                self.join_all()?;
                if self.thread == 0 {
                    self.main_concurrent = false;
                }
                Ok(Flow::Normal)
            }
            Stmt::Lock(id, b) => {
                let newly = self.locks_held.insert(*id);
                self.push_scope();
                let r = self.exec_block(b);
                self.pop_scope();
                if newly {
                    self.locks_held.remove(id);
                }
                r
            }
            Stmt::Print(e) => {
                self.eval(e)?;
                Ok(Flow::Normal)
            }
            Stmt::TailCall(name, args) => {
                let Some(idx) = self.prog.funcs.iter().position(|f| &f.name == name) else {
                    return Err(Exc::Ub(UbKind::IllFormed, format!("unknown fn `{name}`")));
                };
                let cur = self.frames.last().map_or(0, |f| f.fn_idx);
                let cur_f = &self.prog.funcs[cur];
                let tgt = &self.prog.funcs[idx];
                let cur_sig: (Vec<Ty>, Ty) = (
                    cur_f.params.iter().map(|(_, t)| t.clone()).collect(),
                    cur_f.ret.clone(),
                );
                let tgt_sig: (Vec<Ty>, Ty) = (
                    tgt.params.iter().map(|(_, t)| t.clone()).collect(),
                    tgt.ret.clone(),
                );
                if cur_sig != tgt_sig {
                    return Err(Exc::Ub(
                        UbKind::TailCallMismatch,
                        format!(
                            "tail call from `{}` to `{}` with mismatched signature",
                            cur_f.name, tgt.name
                        ),
                    ));
                }
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(a)?);
                }
                let v = self.call_function(idx, vals)?;
                Ok(Flow::Return(v))
            }
            Stmt::Nop => Ok(Flow::Normal),
        }
    }

    fn join_all(&mut self) -> Result<(), Exc> {
        // Each joined thread runs at its spawn statement; the join's own
        // statement resumes after it, as in the oracle. A stop or an abort
        // keeps the innermost path.
        let caller = self.current_path.clone();
        while let Some(t) = self.pending.pop() {
            self.err_cap_check()?;
            let id = self.next_thread;
            self.next_thread += 1;
            let saved_thread = self.thread;
            let saved_locks = std::mem::take(&mut self.locks_held);
            self.thread = id;
            self.frames.push(Frame {
                scopes: vec![Scope::new()],
                fn_idx: 0,
            });
            self.current_path = t.spawn_path.clone();
            // From here on, allocation bases depend on the order the
            // oracle declares the thread environment in, which this pass
            // does not follow.
            if t.env.len() >= 2 {
                self.base_drift = true;
            }
            let mut failed = false;
            for (n, ty, v) in t.env {
                if let Err(e) = self.declare_local(&n, ty, v) {
                    if let Exc::Ub(k, m) | Exc::Panic(k, m) = e {
                        self.record(k, m);
                    }
                    failed = true;
                    break;
                }
            }
            if !failed {
                let body = t.body;
                for s in &body.stmts {
                    match self.exec_stmt(s) {
                        Ok(Flow::Normal) => {}
                        Ok(Flow::Return(_)) => break,
                        Err(Exc::Ub(k, m) | Exc::Panic(k, m)) => {
                            self.record(k, m);
                            break;
                        }
                        Err(e @ (Exc::Stop(..) | Exc::Abort)) => {
                            if let Some(frame) = self.frames.pop() {
                                for scope in frame.scopes {
                                    for local in scope.values() {
                                        self.mem.kill_stack_slot(local.alloc);
                                    }
                                }
                            }
                            self.thread = saved_thread;
                            self.locks_held = saved_locks;
                            return Err(e);
                        }
                    }
                }
            }
            if let Some(frame) = self.frames.pop() {
                for scope in frame.scopes {
                    for local in scope.values() {
                        self.mem.kill_stack_slot(local.alloc);
                    }
                }
            }
            self.thread = saved_thread;
            self.locks_held = saved_locks;
            self.current_path.clone_from(&caller);
        }
        Ok(())
    }

    // ---- builtins -------------------------------------------------------------

    #[allow(clippy::too_many_lines)]
    fn eval_builtin(&mut self, b: BuiltinKind, tys: &[Ty], args: &[Expr]) -> EvalResult {
        let ty0 = tys.first();
        match b {
            BuiltinKind::Alloc => {
                let size = self.eval_usize(&args[0])?;
                let align = self.eval_usize(&args[1])?;
                if size == 0 || align == 0 || !align.is_power_of_two() {
                    return Err(Exc::Ub(
                        UbKind::Precondition,
                        "alloc with invalid layout (zero size or bad alignment)".into(),
                    ));
                }
                let (id, tag, base) = self.alloc_mem(AllocKind::Heap, size, align);
                Ok(Value::Ptr(Pointer::with_prov(
                    id,
                    tag,
                    base,
                    Ty::Int(rb_lang::IntTy::U8),
                )))
            }
            BuiltinKind::Dealloc => {
                let p = self.eval_ptr(&args[0])?;
                let size = self.eval_usize(&args[1])?;
                let align = self.eval_usize(&args[2])?;
                let Some((alloc, _tag)) = p.prov else {
                    return Err(self.ub(UbKind::NoProvenance, "dealloc"));
                };
                let base = self.mem.alloc(alloc).map_or(0, |a| a.base);
                if p.addr != base {
                    return Err(Exc::Ub(
                        UbKind::BadDealloc,
                        "deallocating with a pointer not at the allocation start".into(),
                    ));
                }
                self.mem
                    .deallocate(alloc, size, align)
                    .map_err(|k| self.ub(k, "dealloc"))?;
                Ok(Value::Unit)
            }
            BuiltinKind::PtrRead => {
                let t = ty0.cloned().unwrap_or(Ty::Int(rb_lang::IntTy::U8));
                let p = self.eval_ptr(&args[0])?;
                let place = self.place_from_pointer(&p.retype(t), "ptr_read")?;
                self.typed_read(&place, false)
            }
            BuiltinKind::PtrWrite => {
                let t = ty0.cloned().unwrap_or(Ty::Int(rb_lang::IntTy::U8));
                let p = self.eval_ptr(&args[0])?;
                let v = self.eval(&args[1])?;
                let place = self.place_from_pointer(&p.retype(t), "ptr_write")?;
                self.typed_write(&place, &v, false)?;
                Ok(Value::Unit)
            }
            BuiltinKind::PtrOffset => {
                let t = ty0.cloned().unwrap_or(Ty::Int(rb_lang::IntTy::U8));
                let p = self.eval_ptr(&args[0])?;
                let n = self
                    .eval(&args[1])?
                    .as_int()
                    .ok_or_else(|| Exc::Ub(UbKind::IllFormed, "non-integer offset".into()))?;
                let es = ty_size(self.prog, &t).unwrap_or(1) as i128;
                let new_addr = (p.addr as i128 + n * es) as u64;
                if let Some((alloc, _)) = p.prov {
                    let a = self
                        .mem
                        .alloc(alloc)
                        .ok_or_else(|| self.ub(UbKind::UseAfterFree, "ptr_offset"))?;
                    let lo = a.base;
                    let hi = a.base + a.size as u64;
                    if new_addr < lo || new_addr > hi {
                        // Whether the escaped address lands in *another*
                        // allocation depends on absolute layout.
                        if self.base_drift {
                            self.sound = false;
                        }
                        return Err(if self.mem.alloc_at(new_addr).is_some() {
                            self.ub(
                                UbKind::CrossAllocation,
                                "ptr_offset into another allocation",
                            )
                        } else {
                            self.ub(UbKind::OutOfBounds, "ptr_offset")
                        });
                    }
                }
                Ok(Value::Ptr(Pointer {
                    prov: p.prov,
                    addr: new_addr,
                    pointee: t,
                }))
            }
            BuiltinKind::Transmute => {
                if tys.len() != 2 {
                    return Err(Exc::Ub(
                        UbKind::IllFormed,
                        "transmute needs two type args".into(),
                    ));
                }
                let (from, to) = (&tys[0], &tys[1]);
                let sf = ty_size(self.prog, from);
                let st = ty_size(self.prog, to);
                if sf != st || sf.is_none() {
                    return Err(Exc::Ub(
                        UbKind::TransmuteSize,
                        format!(
                            "cannot transmute between types of different sizes ({} vs {})",
                            sf.map_or("?".into(), |v| v.to_string()),
                            st.map_or("?".into(), |v| v.to_string())
                        ),
                    ));
                }
                let v = self.eval(&args[0])?;
                self.observe_value(&v);
                let bytes = to_bytes(self.prog, &v, from).map_err(|k| self.ub(k, "transmute"))?;
                from_bytes(self.prog, &bytes, to).map_err(|k| self.ub(k, "transmute"))
            }
            BuiltinKind::BoxNew => {
                let t = ty0.cloned().unwrap_or(Ty::Int(rb_lang::IntTy::I32));
                let v = self.eval(&args[0])?;
                let size = ty_size(self.prog, &t)
                    .ok_or_else(|| self.ub(UbKind::IllFormed, "box_new of unsized type"))?;
                let align = ty_align(self.prog, &t).unwrap_or(1);
                let (id, tag, base) = self.alloc_mem(AllocKind::Heap, size.max(1), align);
                let place = PlaceRef {
                    alloc: id,
                    offset: 0,
                    tag,
                    ty: t.clone(),
                };
                self.typed_write(&place, &v, false)?;
                Ok(Value::Boxed(Pointer::with_prov(id, tag, base, t)))
            }
            BuiltinKind::BoxIntoRaw => {
                let v = self.eval(&args[0])?;
                match v {
                    Value::Boxed(p) => Ok(Value::Ptr(p)),
                    other => Err(Exc::Ub(
                        UbKind::IllFormed,
                        format!("box_into_raw of {}", other.render()),
                    )),
                }
            }
            BuiltinKind::BoxFromRaw => {
                let p = self.eval_ptr(&args[0])?;
                let Some((alloc, _)) = p.prov else {
                    return Err(self.ub(UbKind::NoProvenance, "box_from_raw"));
                };
                let a = self
                    .mem
                    .alloc(alloc)
                    .ok_or_else(|| self.ub(UbKind::UseAfterFree, "box_from_raw"))?;
                if a.kind != AllocKind::Heap {
                    return Err(Exc::Ub(
                        UbKind::Precondition,
                        "box_from_raw of a pointer not from the heap".into(),
                    ));
                }
                if !a.live {
                    return Err(self.ub(UbKind::UseAfterFree, "box_from_raw"));
                }
                if p.addr != a.base {
                    return Err(Exc::Ub(
                        UbKind::Precondition,
                        "box_from_raw of an interior pointer".into(),
                    ));
                }
                Ok(Value::Boxed(p))
            }
            BuiltinKind::DropBox => {
                let v = self.eval(&args[0])?;
                match v {
                    Value::Boxed(p) => {
                        let Some((alloc, _)) = p.prov else {
                            return Err(self.ub(UbKind::NoProvenance, "drop_box"));
                        };
                        let (size, align) = self
                            .mem
                            .alloc(alloc)
                            .map(|a| (a.size, a.align))
                            .ok_or_else(|| self.ub(UbKind::UseAfterFree, "drop_box"))?;
                        self.mem
                            .deallocate(alloc, size, align)
                            .map_err(|k| self.ub(k, "drop_box"))?;
                        Ok(Value::Unit)
                    }
                    other => Err(Exc::Ub(
                        UbKind::IllFormed,
                        format!("drop_box of {}", other.render()),
                    )),
                }
            }
            BuiltinKind::GetUnchecked => {
                let t = ty0.cloned().unwrap_or(Ty::Int(rb_lang::IntTy::I32));
                let base = self.eval(&args[0])?;
                let idx = self
                    .eval(&args[1])?
                    .as_int()
                    .ok_or_else(|| Exc::Ub(UbKind::IllFormed, "non-integer index".into()))?;
                let p = base.as_pointer().cloned().ok_or_else(|| {
                    Exc::Ub(UbKind::IllFormed, "get_unchecked on non-pointer".into())
                })?;
                let es = ty_size(self.prog, &t).unwrap_or(1) as i128;
                let addr = (p.addr as i128 + idx * es) as u64;
                let q = Pointer {
                    prov: p.prov,
                    addr,
                    pointee: t,
                };
                let place = self.place_from_pointer(&q, "get_unchecked")?;
                self.typed_read(&place, false)
            }
            BuiltinKind::UncheckedAdd | BuiltinKind::UncheckedSub | BuiltinKind::UncheckedMul => {
                let (x, t) = self.eval_int(&args[0])?;
                let (y, _) = self.eval_int(&args[1])?;
                let r = match b {
                    BuiltinKind::UncheckedAdd => x.checked_add(y),
                    BuiltinKind::UncheckedSub => x.checked_sub(y),
                    _ => x.checked_mul(y),
                };
                match r {
                    Some(v) if t.in_range(v) => Ok(Value::Int(v, t)),
                    _ => Err(Exc::Ub(
                        UbKind::UncheckedOverflow,
                        format!(
                            "`{}` overflowed: the unsafe precondition was violated",
                            b.name()
                        ),
                    )),
                }
            }
            BuiltinKind::CheckedAdd | BuiltinKind::CheckedSub | BuiltinKind::CheckedMul => {
                let (x, t) = self.eval_int(&args[0])?;
                let (y, _) = self.eval_int(&args[1])?;
                let r = match b {
                    BuiltinKind::CheckedAdd => x.checked_add(y),
                    BuiltinKind::CheckedSub => x.checked_sub(y),
                    _ => x.checked_mul(y),
                };
                match r {
                    Some(v) if t.in_range(v) => Ok(Value::Int(v, t)),
                    _ => Err(Exc::Panic(
                        UbKind::PanicOverflow,
                        format!("checked arithmetic `{}` overflowed", b.name()),
                    )),
                }
            }
            BuiltinKind::AtomicLoad => {
                let place = self.eval_place(&args[0])?;
                self.typed_read(&place, true)
            }
            BuiltinKind::AtomicStore => {
                let v = self.eval(&args[1])?;
                let place = self.eval_place(&args[0])?;
                self.typed_write(&place, &v, true)?;
                Ok(Value::Unit)
            }
            BuiltinKind::FromLeBytes => {
                let t = ty0.cloned().unwrap_or(Ty::Int(rb_lang::IntTy::U32));
                let v = self.eval(&args[0])?;
                let n = ty_size(self.prog, &t).unwrap_or(4);
                let src_ty = Ty::Array(Box::new(Ty::Int(rb_lang::IntTy::U8)), n);
                let bytes =
                    to_bytes(self.prog, &v, &src_ty).map_err(|k| self.ub(k, "from_le_bytes"))?;
                from_bytes(self.prog, &bytes, &t).map_err(|k| self.ub(k, "from_le_bytes"))
            }
            BuiltinKind::ToLeBytes => {
                let v = self.eval(&args[0])?;
                let Value::Int(x, t) = v else {
                    return Err(Exc::Ub(
                        UbKind::IllFormed,
                        "to_le_bytes of non-integer".into(),
                    ));
                };
                let raw = (t.wrap(x) as u128).to_le_bytes();
                Ok(Value::Array(
                    raw.iter()
                        .take(t.size())
                        .map(|b| Value::Int(i128::from(*b), rb_lang::IntTy::U8))
                        .collect(),
                ))
            }
            BuiltinKind::PtrAddr => {
                let p = self.eval_ptr(&args[0])?;
                self.observe_addr(p.prov);
                Ok(Value::Int(p.addr as i128, rb_lang::IntTy::Usize))
            }
            BuiltinKind::CopyNonoverlapping => {
                let t = ty0.cloned().unwrap_or(Ty::Int(rb_lang::IntTy::U8));
                let src = self.eval_ptr(&args[0])?;
                let dst = self.eval_ptr(&args[1])?;
                let n = self.eval_usize(&args[2])?;
                let es = ty_size(self.prog, &t).unwrap_or(1);
                let len = es * n;
                if src.prov.map(|(a, _)| a) != dst.prov.map(|(a, _)| a) {
                    // Overlap of *distinct* allocations depends on layout.
                    self.observe_addr(src.prov);
                    self.observe_addr(dst.prov);
                }
                if src.addr < dst.addr + len as u64 && dst.addr < src.addr + len as u64 {
                    return Err(Exc::Ub(
                        UbKind::Precondition,
                        "copy_nonoverlapping with overlapping ranges".into(),
                    ));
                }
                let sp = self.place_from_pointer(&src, "copy src")?;
                let bytes = self
                    .mem
                    .read_bytes(sp.alloc, sp.tag, sp.offset, len, 1)
                    .map_err(|k| self.ub(k, "copy src"))?;
                self.record_access(sp.alloc, sp.offset, len.max(1), false, false);
                let dp = self.place_from_pointer(&dst, "copy dst")?;
                self.mem
                    .write_bytes(dp.alloc, dp.tag, dp.offset, &bytes, 1)
                    .map_err(|k| self.ub(k, "copy dst"))?;
                self.record_access(dp.alloc, dp.offset, len.max(1), true, false);
                Ok(Value::Unit)
            }
            BuiltinKind::AssumeInitRead => {
                let t = ty0.cloned().unwrap_or(Ty::Int(rb_lang::IntTy::U8));
                let p = self.eval_ptr(&args[0])?;
                let place = self.place_from_pointer(&p.retype(t), "assume_init_read")?;
                match self.typed_read(&place, false) {
                    Err(Exc::Ub(UbKind::UninitRead, _)) => Err(Exc::Ub(
                        UbKind::Precondition,
                        "assume_init_read of uninitialised memory: contract violated".into(),
                    )),
                    other => other,
                }
            }
            BuiltinKind::Abort => Err(Exc::Abort),
        }
    }

    fn eval_usize(&mut self, e: &Expr) -> Result<usize, Exc> {
        let v = self
            .eval(e)?
            .as_int()
            .ok_or_else(|| Exc::Ub(UbKind::IllFormed, "expected integer".into()))?;
        usize::try_from(v).map_err(|_| Exc::Ub(UbKind::IllFormed, "negative size".into()))
    }

    fn eval_int(&mut self, e: &Expr) -> Result<(i128, rb_lang::IntTy), Exc> {
        match self.eval(e)? {
            Value::Int(v, t) => Ok((v, t)),
            other => Err(Exc::Ub(
                UbKind::IllFormed,
                format!("expected integer, got {}", other.render()),
            )),
        }
    }

    fn eval_ptr(&mut self, e: &Expr) -> Result<Pointer, Exc> {
        match self.eval(e)? {
            Value::Ptr(p) | Value::Ref(p) | Value::Boxed(p) => Ok(p),
            other => Err(Exc::Ub(
                UbKind::IllFormed,
                format!("expected pointer, got {}", other.render()),
            )),
        }
    }
}
