//! The abstract interpreter: executes an [`rb_lang::Program`] over the
//! memory model, detecting undefined behaviour, panics, data races and
//! leaks — the role real Miri plays for the paper's pipeline.
//!
//! Execution is deterministic. Error recovery happens at the granularity of
//! top-level statements of each function body: when a statement triggers UB
//! it is recorded and skipped, so one run can surface several diagnostics
//! (the error counts `nᵢ` that drive the adaptive-rollback analysis).
//! Panics stop the current thread; exceeding the step budget stops the run.

use crate::borrows::RetagKind;
use crate::diagnostics::{MiriError, MiriReport, UbKind};
use crate::memory::{AllocKind, Memory};
use crate::race::{Access, AccessLog};
use crate::value::{
    from_bytes, to_bytes, to_bytes_into, value_matches_ty, AbByte, AllocId, BorTag, Pointer, Value,
};
use rb_lang::ast::{BinOp, Block, BuiltinKind, Expr, Lit, Program, Stmt, StmtPath, Ty, UnOp};
use rb_lang::check::{check_program, project, ty_align, ty_size};
use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap};

/// Configuration of an oracle run.
#[derive(Clone, Debug)]
pub struct MiriConfig {
    /// Maximum interpreter steps before aborting.
    pub step_budget: u64,
    /// Maximum diagnostics before execution stops.
    pub max_errors: usize,
    /// Whether leaked heap allocations are reported at program end.
    pub detect_leaks: bool,
    /// Whether the static checker gates execution.
    pub check_static: bool,
    /// Maximum call depth.
    pub max_call_depth: usize,
}

impl Default for MiriConfig {
    fn default() -> MiriConfig {
        MiriConfig {
            step_budget: 200_000,
            max_errors: 8,
            detect_leaks: true,
            check_static: true,
            max_call_depth: 64,
        }
    }
}

/// Runs the oracle with default configuration.
///
/// ```
/// # use rb_lang::parser::parse_program;
/// # use rb_miri::interp::run_program;
/// let p = parse_program("fn main() { print(2i32 + 2i32); }").unwrap();
/// let report = run_program(&p);
/// assert!(report.passes());
/// assert_eq!(report.outputs, vec!["4"]);
/// ```
#[must_use]
pub fn run_program(prog: &Program) -> MiriReport {
    run_with_config(prog, &MiriConfig::default())
}

/// Runs the oracle with an explicit configuration.
#[must_use]
pub fn run_with_config(prog: &Program, config: &MiriConfig) -> MiriReport {
    if config.check_static {
        let errs = check_program(prog);
        if !errs.is_empty() {
            let mut report = MiriReport::default();
            for e in errs.into_iter().take(config.max_errors) {
                report.errors.push(MiriError {
                    kind: UbKind::IllFormed,
                    message: e.to_string(),
                    path: e.path,
                    thread: 0,
                });
            }
            return report;
        }
    }
    let mut m = Machine::new(prog, config.clone());
    m.run();
    m.finish()
}

// ---- machine ---------------------------------------------------------------

/// Non-local control flow of statement execution.
enum Flow {
    Normal,
    Return(Value),
}

/// Exceptional termination of evaluation.
enum Exc {
    /// Undefined behaviour: recoverable at a function's top level.
    Ub(UbKind, String),
    /// Panic: stops the current thread.
    Panic(UbKind, String),
    /// Clean process abort (`abort()` builtin).
    Abort,
    /// Step budget / error cap reached: stops the run.
    Stop(UbKind, String),
}

type EvalResult = Result<Value, Exc>;
type ExecResult = Result<Flow, Exc>;

/// A local's stack slot; its type is the one the program declares.
#[derive(Clone, Copy)]
struct Local<'p> {
    alloc: AllocId,
    tag: BorTag,
    ty: &'p Ty,
}

/// A call frame (or a spawned thread's body): its function and the index
/// of its outermost scope in [`Machine::scope_marks`].
struct Frame {
    fn_idx: usize,
    first_scope: usize,
}

/// A typed memory location. Its type is borrowed from the program when
/// the program spells it out, and owned when it came from a pointer value.
struct PlaceRef<'p> {
    alloc: AllocId,
    offset: i64,
    tag: BorTag,
    ty: Cow<'p, Ty>,
}

/// The top-level statement being executed: diagnostics are attributed at
/// this granularity. `stmt` is `None` before a function's first statement.
#[derive(Clone, Copy, Default)]
struct At {
    func: usize,
    stmt: Option<usize>,
}

impl At {
    fn path(self) -> StmtPath {
        StmtPath {
            func: self.func,
            steps: self.stmt.map(|i| (i, 0)).into_iter().collect(),
        }
    }
}

struct PendingThread<'p> {
    env: Vec<(&'p str, &'p Ty, Value)>,
    body: &'p Block,
    spawn_at: At,
}

struct Machine<'p> {
    prog: &'p Program,
    config: MiriConfig,
    mem: Memory,
    log: AccessLog,
    errors: Vec<MiriError>,
    outputs: Vec<String>,
    steps: u64,
    frames: Vec<Frame>,
    /// Locals of every open scope of every frame, outermost first, each
    /// scope's in declaration order. Re-declaring a name in the same scope
    /// replaces its entry in place, so iteration order — and with it the
    /// addresses a spawned thread's copies get — never depends on a hash
    /// seed.
    locals: Vec<(&'p str, Local<'p>)>,
    /// Start index in `locals` of each open scope, outermost first.
    scope_marks: Vec<usize>,
    statics: HashMap<&'p str, (AllocId, BorTag, &'p Ty)>,
    pending: Vec<PendingThread<'p>>,
    locks_held: BTreeSet<u32>,
    thread: usize,
    next_thread: usize,
    main_concurrent: bool,
    at: At,
    /// Reused serialisation buffer for writes.
    write_buf: Vec<AbByte>,
    completed: bool,
}

impl<'p> Machine<'p> {
    fn new(prog: &'p Program, config: MiriConfig) -> Machine<'p> {
        Machine {
            prog,
            config,
            mem: Memory::new(),
            log: AccessLog::new(),
            errors: Vec::new(),
            outputs: Vec::new(),
            steps: 0,
            frames: Vec::new(),
            locals: Vec::new(),
            scope_marks: Vec::new(),
            statics: HashMap::new(),
            pending: Vec::new(),
            locks_held: BTreeSet::new(),
            thread: 0,
            next_thread: 1,
            main_concurrent: false,
            at: At::default(),
            write_buf: Vec::new(),
            completed: false,
        }
    }

    fn finish(self) -> MiriReport {
        MiriReport {
            errors: self.errors,
            outputs: self.outputs,
            steps: self.steps,
            completed: self.completed,
        }
    }

    fn run(&mut self) {
        // Initialise statics.
        let prog = self.prog;
        for s in &prog.statics {
            let size = ty_size(self.prog, &s.ty).unwrap_or(8);
            let align = ty_align(self.prog, &s.ty).unwrap_or(8);
            let (id, tag, _) = self.mem.allocate(AllocKind::Static, size, align);
            let v = match &s.init {
                Lit::Unit => Value::Unit,
                Lit::Bool(b) => Value::Bool(*b),
                Lit::Int(v, t) => Value::Int(*v, *t),
            };
            if let Ok(bytes) = to_bytes(self.prog, &v, &s.ty) {
                let _ = self.mem.write_bytes(id, tag, 0, &bytes, 1);
            }
            self.statics.insert(&s.name, (id, tag, &s.ty));
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
            Err(Exc::Abort) => {
                self.completed = true;
                return;
            }
        }
        // Implicit join of remaining threads.
        if let Err(e) = self.join_all() {
            match e {
                Exc::Ub(k, m) | Exc::Panic(k, m) | Exc::Stop(k, m) => self.record(k, m),
                Exc::Abort => {}
            }
        }
        self.main_concurrent = false;
        // Race scan.
        let races = self.log.detect_races(&self.mem);
        for r in races {
            if self.errors.len() >= self.config.max_errors {
                break;
            }
            self.errors.push(r);
        }
        // Leak check.
        if self.config.detect_leaks {
            for id in self.mem.live_heap_allocs().into_iter().take(3) {
                if self.errors.len() >= self.config.max_errors {
                    break;
                }
                let size = self.mem.alloc(id).map_or(0, |a| a.size);
                self.errors.push(MiriError {
                    kind: UbKind::Leak,
                    message: format!("memory leaked: {size}-byte heap allocation never freed"),
                    path: None,
                    thread: 0,
                });
            }
        }
        self.completed = true;
    }

    fn record(&mut self, kind: UbKind, message: String) {
        if self.errors.len() < self.config.max_errors {
            self.errors.push(MiriError {
                kind,
                message,
                path: Some(self.at.path()),
                thread: self.thread,
            });
        }
    }

    fn step(&mut self) -> Result<(), Exc> {
        self.steps += 1;
        if self.steps > self.config.step_budget {
            return Err(Exc::Stop(
                UbKind::ResourceExhausted,
                "interpreter step budget exceeded (possible infinite loop)".into(),
            ));
        }
        Ok(())
    }

    fn err_cap_check(&self) -> Result<(), Exc> {
        if self.errors.len() >= self.config.max_errors {
            Err(Exc::Stop(UbKind::IllFormed, "error cap reached".into()))
        } else {
            Ok(())
        }
    }

    // ---- frames and locals ------------------------------------------------

    /// Index in `locals` where the current frame's locals start.
    fn frame_start(&self) -> usize {
        self.frames
            .last()
            .map_or(self.locals.len(), |f| self.scope_marks[f.first_scope])
    }

    fn lookup_local(&self, name: &str) -> Option<Local<'p>> {
        self.locals[self.frame_start()..]
            .iter()
            .rev()
            .find_map(|&(n, l)| (n == name).then_some(l))
    }

    fn push_frame(&mut self, fn_idx: usize) {
        self.frames.push(Frame {
            fn_idx,
            first_scope: self.scope_marks.len(),
        });
        self.push_scope();
    }

    /// Pops the current frame, killing the stack slots of all its scopes.
    fn pop_frame(&mut self) {
        if let Some(frame) = self.frames.pop() {
            while self.scope_marks.len() > frame.first_scope {
                self.pop_scope();
            }
        }
    }

    fn push_scope(&mut self) {
        self.scope_marks.push(self.locals.len());
    }

    fn pop_scope(&mut self) {
        let mark = self.scope_marks.pop().expect("scope open");
        for (_, local) in &self.locals[mark..] {
            self.mem.kill_stack_slot(local.alloc);
        }
        self.locals.truncate(mark);
    }

    fn declare_local(&mut self, name: &'p str, ty: &'p Ty, value: Value) -> Result<(), Exc> {
        let size = ty_size(self.prog, ty)
            .ok_or_else(|| Exc::Ub(UbKind::IllFormed, format!("unsized type for `{name}`")))?;
        let align = ty_align(self.prog, ty).unwrap_or(1);
        let (alloc, tag, _) = self.mem.allocate(AllocKind::Stack, size.max(1), align);
        let slot = PlaceRef {
            alloc,
            offset: 0,
            tag,
            ty: Cow::Borrowed(ty),
        };
        self.write_value(
            &slot,
            &value,
            1,
            [
                "initialiser does not fit declared type",
                "writing initial value",
            ],
        )?;
        let local = Local { alloc, tag, ty };
        let scope = *self.scope_marks.last().expect("scope present");
        match self.locals[scope..].iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = local,
            None => self.locals.push((name, local)),
        }
        Ok(())
    }

    /// Serialises `value` at the place's type through the reused write
    /// buffer and writes it, returning the byte count. `what` labels an
    /// encoding failure and a memory failure.
    fn write_value(
        &mut self,
        place: &PlaceRef<'p>,
        value: &Value,
        align: usize,
        what: [&str; 2],
    ) -> Result<usize, Exc> {
        let mut buf = std::mem::take(&mut self.write_buf);
        let r = match to_bytes_into(self.prog, value, &place.ty, &mut buf) {
            Err(k) => Err(Self::ub(k, what[0])),
            Ok(()) => self
                .mem
                .write_bytes(place.alloc, place.tag, place.offset, &buf, align)
                .map(|()| buf.len())
                .map_err(|k| Self::ub(k, what[1])),
        };
        self.write_buf = buf;
        r
    }

    fn ub(kind: UbKind, what: &str) -> Exc {
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
        // Only concurrent accesses can take part in a race (see
        // `Access::conflicts`), so main's accesses outside a fork-join
        // window are never logged.
        if self.thread == 0 && !self.main_concurrent {
            return;
        }
        let Some(a) = self.mem.alloc(alloc) else {
            return;
        };
        if !matches!(a.kind, AllocKind::Heap | AllocKind::Static) {
            return;
        }
        self.log.record(Access {
            alloc,
            offset: offset.max(0) as usize,
            len,
            thread: self.thread,
            write,
            atomic,
            locks: self.locks_held.clone(),
            concurrent: true,
            path: Some(self.at.path()),
        });
    }

    /// Reads a value of the place's type, decoding it straight from the
    /// allocation's bytes.
    fn typed_read(&mut self, place: &PlaceRef<'p>, atomic: bool) -> EvalResult {
        let size = ty_size(self.prog, &place.ty)
            .ok_or_else(|| Self::ub(UbKind::IllFormed, "read of unsized type"))?;
        let align = ty_align(self.prog, &place.ty).unwrap_or(1);
        let bytes = self
            .mem
            .read_slice(place.alloc, place.tag, place.offset, size, align)
            .map_err(|k| Self::ub(k, "memory read"))?;
        let value = from_bytes(self.prog, bytes, &place.ty);
        self.record_access(place.alloc, place.offset, size.max(1), false, atomic);
        value.map_err(|k| Self::ub(k, "typed read"))
    }

    fn typed_write(
        &mut self,
        place: &PlaceRef<'p>,
        value: &Value,
        atomic: bool,
    ) -> Result<(), Exc> {
        let align = ty_align(self.prog, &place.ty).unwrap_or(1);
        let len = self.write_value(place, value, align, ["typed write", "memory write"])?;
        self.record_access(place.alloc, place.offset, len.max(1), true, atomic);
        Ok(())
    }

    /// The place a pointer addresses, typed `ty`.
    fn place_at(
        &self,
        prov: Option<(AllocId, BorTag)>,
        addr: u64,
        ty: Cow<'p, Ty>,
        what: &str,
    ) -> Result<PlaceRef<'p>, Exc> {
        let Some((alloc, tag)) = prov else {
            return Err(Self::ub(UbKind::NoProvenance, what));
        };
        let a = self
            .mem
            .alloc(alloc)
            .ok_or_else(|| Self::ub(UbKind::UseAfterFree, what))?;
        let offset = addr as i64 - a.base as i64;
        Ok(PlaceRef {
            alloc,
            offset,
            tag,
            ty,
        })
    }

    /// The place a pointer value addresses, typed by its pointee.
    fn place_from_pointer(&self, p: Pointer, what: &str) -> Result<PlaceRef<'p>, Exc> {
        self.place_at(p.prov, p.addr, Cow::Owned(p.pointee), what)
    }

    /// The place of a local variable: one interpreter step, like any
    /// place expression.
    fn var_place(&mut self, name: &str) -> Result<PlaceRef<'p>, Exc> {
        self.step()?;
        match self.lookup_local(name) {
            Some(l) => Ok(PlaceRef {
                alloc: l.alloc,
                offset: 0,
                tag: l.tag,
                ty: Cow::Borrowed(l.ty),
            }),
            None => Err(Exc::Ub(
                UbKind::IllFormed,
                format!("unknown place `{name}`"),
            )),
        }
    }

    // ---- place evaluation ---------------------------------------------------

    fn eval_place(&mut self, e: &'p Expr) -> Result<PlaceRef<'p>, Exc> {
        if let Expr::Var(name) = e {
            return self.var_place(name);
        }
        self.step()?;
        match e {
            Expr::StaticRef(name) => {
                let (alloc, tag, ty) =
                    self.statics.get(name.as_str()).copied().ok_or_else(|| {
                        Exc::Ub(UbKind::IllFormed, format!("unknown static `{name}`"))
                    })?;
                Ok(PlaceRef {
                    alloc,
                    offset: 0,
                    tag,
                    ty: Cow::Borrowed(ty),
                })
            }
            Expr::Deref(inner) => {
                let v = self.eval(inner)?;
                match v {
                    Value::Ptr(p) | Value::Ref(p) | Value::Boxed(p) => {
                        self.place_from_pointer(p, "dereference")
                    }
                    other => Err(Exc::Ub(
                        UbKind::IllFormed,
                        format!("cannot dereference {}", other.render()),
                    )),
                }
            }
            Expr::Index(base, idx) => {
                let mut place = self.eval_place(base)?;
                // Auto-deref references to arrays.
                while let Some(inner) = project(&place.ty, |t| match t {
                    Ty::Ref(inner, _) | Ty::Boxed(inner) => Some(&**inner),
                    _ => None,
                }) {
                    let v = self.typed_read(&place, false)?;
                    let p = v
                        .as_pointer()
                        .ok_or_else(|| Self::ub(UbKind::InvalidRef, "auto-deref"))?;
                    place = self.place_at(p.prov, p.addr, inner, "auto-deref")?;
                }
                let Ty::Array(_, n) = *place.ty else {
                    return Err(Exc::Ub(UbKind::IllFormed, "indexing a non-array".into()));
                };
                let elem = project(&place.ty, |t| match t {
                    Ty::Array(elem, _) => Some(&**elem),
                    _ => None,
                })
                .expect("array type");
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
                    .ok_or_else(|| Self::ub(UbKind::IllFormed, "unsized element"))?;
                Ok(PlaceRef {
                    alloc: place.alloc,
                    offset: place.offset + (iv as i64) * es as i64,
                    tag: place.tag,
                    ty: elem,
                })
            }
            Expr::Field(base, k) => {
                let place = self.eval_place(base)?;
                let Ty::Tuple(ts) = &*place.ty else {
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
                let ty = project(&place.ty, |t| match t {
                    Ty::Tuple(ts) => ts.get(*k),
                    _ => None,
                })
                .expect("tuple field in range");
                Ok(PlaceRef {
                    alloc: place.alloc,
                    offset: place.offset + off,
                    tag: place.tag,
                    ty,
                })
            }
            Expr::UnionField(base, fname) => {
                let place = self.eval_place(base)?;
                let Ty::Union(uname) = &*place.ty else {
                    return Err(Exc::Ub(
                        UbKind::IllFormed,
                        "union field on non-union".into(),
                    ));
                };
                let prog = self.prog;
                let def = prog
                    .union_def(uname)
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
                    ty: Cow::Borrowed(fty),
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
    fn eval(&mut self, e: &'p Expr) -> EvalResult {
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
                    .map_err(|k| Self::ub(k, "reference retag"))?;
                let base = self.mem.alloc(place.alloc).expect("live").base;
                Ok(Value::Ref(Pointer::with_prov(
                    place.alloc,
                    tag,
                    base.wrapping_add(place.offset as u64),
                    place.ty.into_owned(),
                )))
            }
            Expr::RawAddrOf(_, place_e) => {
                let place = self.eval_place(place_e)?;
                let tag = self
                    .mem
                    .retag(place.alloc, place.tag, RetagKind::Raw)
                    .map_err(|k| Self::ub(k, "raw-pointer retag"))?;
                let base = self.mem.alloc(place.alloc).expect("live").base;
                Ok(Value::Ptr(Pointer::with_prov(
                    place.alloc,
                    tag,
                    base.wrapping_add(place.offset as u64),
                    place.ty.into_owned(),
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
                    // Evaluate the variable like any operand: one step for
                    // the expression, one for its place.
                    self.step()?;
                    let place = self.var_place(name)?;
                    let callee = self.typed_read(&place, false)?;
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
                    to_bytes(self.prog, &val, &fty).map_err(|k| Self::ub(k, "union literal"))?;
                let (size, _) = rb_lang::check::union_layout(self.prog, uname)
                    .ok_or_else(|| Self::ub(UbKind::IllFormed, "union layout"))?;
                bytes.resize(size, crate::value::AbByte::Uninit);
                Ok(Value::Union {
                    name: uname.clone(),
                    bytes,
                })
            }
        }
    }

    fn eval_binary(&mut self, op: BinOp, a: &'p Expr, b: &'p Expr) -> EvalResult {
        // Short-circuit logic first.
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

    fn compare(&self, op: BinOp, a: &Value, b: &Value) -> EvalResult {
        let ord = match (a, b) {
            (Value::Int(x, _), Value::Int(y, _)) => x.partial_cmp(y),
            (Value::Bool(x), Value::Bool(y)) => x.partial_cmp(y),
            (Value::Unit, Value::Unit) => Some(std::cmp::Ordering::Equal),
            _ => match (a.as_pointer(), b.as_pointer()) {
                (Some(p), Some(q)) => p.addr.partial_cmp(&q.addr),
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
            // Pointer-to-int: the address escapes, provenance is lost
            // (strict-provenance model).
            (Value::Ptr(p) | Value::Ref(p) | Value::Boxed(p), Ty::Int(t)) => {
                Ok(Value::Int(t.wrap(p.addr as i128), *t))
            }
            (Value::FnPtr(idx), Ty::Int(t)) => Ok(Value::Int(
                t.wrap(idx.map_or(0, crate::value::fn_ptr_addr) as i128),
                *t,
            )),
            // Int-to-pointer: no provenance.
            (Value::Int(x, _), Ty::RawPtr(inner, _)) => {
                Ok(Value::Ptr(Pointer::from_addr(x as u64, (**inner).clone())))
            }
            // Pointer re-typing.
            (Value::Ptr(p), Ty::RawPtr(inner, _)) => Ok(Value::Ptr(p.retype((**inner).clone()))),
            // Reference decays to raw pointer via a raw retag.
            (Value::Ref(p) | Value::Boxed(p), Ty::RawPtr(inner, _)) => {
                if let Some((alloc, tag)) = p.prov {
                    let fresh = self
                        .mem
                        .retag(alloc, tag, RetagKind::Raw)
                        .map_err(|k| Self::ub(k, "ref-to-raw cast"))?;
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

    fn call_value(&mut self, callee: Value, args: &'p [Expr]) -> EvalResult {
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
        if self.frames.len() >= self.config.max_call_depth {
            return Err(Exc::Stop(
                UbKind::ResourceExhausted,
                "call depth exceeded".into(),
            ));
        }
        // Borrowed from the program, not from `self`: the body outlives
        // every mutation the call makes.
        let f = &self.prog.funcs[idx];
        if f.params.len() != args.len() {
            return Err(Exc::Ub(
                UbKind::IllFormed,
                format!("`{}` called with wrong arity", f.name),
            ));
        }
        self.push_frame(idx);
        let mut result = Ok(Value::Unit);
        for ((name, ty), v) in f.params.iter().zip(args) {
            if let Err(e) = self.declare_local(name, ty, v) {
                result = Err(e);
                break;
            }
        }
        if result.is_ok() {
            let caller = self.at;
            result = self.exec_fn_body(&f.body, idx).map(|flow| {
                // What happens after the call belongs to the caller's
                // statement.
                self.at = caller;
                match flow {
                    Flow::Return(v) => v,
                    Flow::Normal => Value::Unit,
                }
            });
        }
        self.pop_frame();
        result
    }

    /// Executes a function body with top-level UB recovery.
    fn exec_fn_body(&mut self, body: &'p Block, fn_idx: usize) -> ExecResult {
        for (i, s) in body.stmts.iter().enumerate() {
            self.err_cap_check()?;
            self.at = At {
                func: fn_idx,
                stmt: Some(i),
            };
            match self.exec_stmt(s) {
                Ok(Flow::Normal) => {}
                Ok(Flow::Return(v)) => return Ok(Flow::Return(v)),
                Err(Exc::Ub(k, m)) => {
                    // Recover: record and skip this statement.
                    self.record(k, m);
                }
                Err(Exc::Panic(k, m)) => {
                    self.record(k, m);
                    return Ok(Flow::Normal); // thread/function stops cleanly
                }
                Err(e @ (Exc::Stop(..) | Exc::Abort)) => return Err(e),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_block(&mut self, b: &'p Block) -> ExecResult {
        for s in &b.stmts {
            match self.exec_stmt(s)? {
                Flow::Normal => {}
                Flow::Return(v) => return Ok(Flow::Return(v)),
            }
        }
        Ok(Flow::Normal)
    }

    #[allow(clippy::too_many_lines)]
    fn exec_stmt(&mut self, s: &'p Stmt) -> ExecResult {
        self.step()?;
        match s {
            Stmt::Let { name, ty, init } => {
                let v = self.eval(init)?;
                self.declare_local(name, ty, v)?;
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
            Stmt::Unsafe(b) => {
                self.push_scope();
                let r = self.exec_block(b);
                self.pop_scope();
                r
            }
            Stmt::Scope(b) => {
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
                // Snapshot visible locals by value, outer scope to inner,
                // each in declaration order. Each is read through its name,
                // so a shadowed entry copies the binding that shadows it.
                let (start, end) = (self.frame_start(), self.locals.len());
                let mut env = Vec::with_capacity(end - start);
                for i in start..end {
                    let (n, l) = self.locals[i];
                    let place = self.var_place(n)?;
                    let v = self.typed_read(&place, false)?;
                    env.push((n, l.ty, v));
                }
                self.pending.push(PendingThread {
                    env,
                    body: b,
                    spawn_at: self.at,
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
                let v = self.eval(e)?;
                self.outputs.push(v.render());
                Ok(Flow::Normal)
            }
            Stmt::TailCall(name, args) => {
                let Some(idx) = self.prog.funcs.iter().position(|f| &f.name == name) else {
                    return Err(Exc::Ub(UbKind::IllFormed, format!("unknown fn `{name}`")));
                };
                let cur = self.frames.last().map_or(0, |f| f.fn_idx);
                let cur_f = &self.prog.funcs[cur];
                let tgt = &self.prog.funcs[idx];
                let same_sig = cur_f.ret == tgt.ret
                    && cur_f
                        .params
                        .iter()
                        .map(|(_, t)| t)
                        .eq(tgt.params.iter().map(|(_, t)| t));
                if !same_sig {
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
        // Each joined thread runs at its spawn statement; what follows the
        // join belongs to the join's own statement. A stop or an abort
        // keeps the innermost cursor.
        let caller = self.at;
        while let Some(t) = self.pending.pop() {
            self.err_cap_check()?;
            let id = self.next_thread;
            self.next_thread += 1;
            let saved_thread = self.thread;
            let saved_locks = std::mem::take(&mut self.locks_held);
            self.thread = id;
            self.push_frame(0);
            self.at = t.spawn_at;
            let mut failed = false;
            for (n, ty, v) in t.env {
                if let Err(e) = self.declare_local(n, ty, v) {
                    if let Exc::Ub(k, m) | Exc::Panic(k, m) = e {
                        self.record(k, m);
                    }
                    failed = true;
                    break;
                }
            }
            if !failed {
                // Thread bodies get UB recovery at their top level too.
                for s in &t.body.stmts {
                    match self.exec_stmt(s) {
                        Ok(Flow::Normal) => {}
                        Ok(Flow::Return(_)) => break,
                        Err(Exc::Ub(k, m) | Exc::Panic(k, m)) => {
                            self.record(k, m);
                            break;
                        }
                        Err(e @ (Exc::Stop(..) | Exc::Abort)) => {
                            // Restore context before propagating.
                            self.pop_frame();
                            self.thread = saved_thread;
                            self.locks_held = saved_locks;
                            return Err(e);
                        }
                    }
                }
            }
            self.pop_frame();
            self.thread = saved_thread;
            self.locks_held = saved_locks;
            self.at = caller;
        }
        Ok(())
    }

    // ---- builtins -------------------------------------------------------------

    #[allow(clippy::too_many_lines)]
    fn eval_builtin(&mut self, b: BuiltinKind, tys: &'p [Ty], args: &'p [Expr]) -> EvalResult {
        // The builtin's first type argument, or `default` when it has none.
        let ty0 = |default: rb_lang::IntTy| {
            tys.first()
                .map_or(Cow::Owned(Ty::Int(default)), Cow::Borrowed)
        };
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
                let (id, tag, base) = self.mem.allocate(AllocKind::Heap, size, align);
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
                    return Err(Self::ub(UbKind::NoProvenance, "dealloc"));
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
                    .map_err(|k| Self::ub(k, "dealloc"))?;
                Ok(Value::Unit)
            }
            BuiltinKind::PtrRead => {
                let t = ty0(rb_lang::IntTy::U8);
                let p = self.eval_ptr(&args[0])?;
                let place = self.place_at(p.prov, p.addr, t, "ptr_read")?;
                self.typed_read(&place, false)
            }
            BuiltinKind::PtrWrite => {
                let t = ty0(rb_lang::IntTy::U8);
                let p = self.eval_ptr(&args[0])?;
                let v = self.eval(&args[1])?;
                let place = self.place_at(p.prov, p.addr, t, "ptr_write")?;
                self.typed_write(&place, &v, false)?;
                Ok(Value::Unit)
            }
            BuiltinKind::PtrOffset => {
                let t = ty0(rb_lang::IntTy::U8);
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
                        .ok_or_else(|| Self::ub(UbKind::UseAfterFree, "ptr_offset"))?;
                    let lo = a.base;
                    let hi = a.base + a.size as u64; // one-past-end allowed
                    if new_addr < lo || new_addr > hi {
                        return Err(if self.mem.alloc_at(new_addr).is_some() {
                            Self::ub(
                                UbKind::CrossAllocation,
                                "ptr_offset into another allocation",
                            )
                        } else {
                            Self::ub(UbKind::OutOfBounds, "ptr_offset")
                        });
                    }
                }
                Ok(Value::Ptr(Pointer {
                    prov: p.prov,
                    addr: new_addr,
                    pointee: t.into_owned(),
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
                let bytes = to_bytes(self.prog, &v, from).map_err(|k| Self::ub(k, "transmute"))?;
                from_bytes(self.prog, &bytes, to).map_err(|k| Self::ub(k, "transmute"))
            }
            BuiltinKind::BoxNew => {
                let t = ty0(rb_lang::IntTy::I32);
                let v = self.eval(&args[0])?;
                let size = ty_size(self.prog, &t)
                    .ok_or_else(|| Self::ub(UbKind::IllFormed, "box_new of unsized type"))?;
                let align = ty_align(self.prog, &t).unwrap_or(1);
                let (id, tag, base) = self.mem.allocate(AllocKind::Heap, size.max(1), align);
                let place = PlaceRef {
                    alloc: id,
                    offset: 0,
                    tag,
                    ty: t.clone(),
                };
                self.typed_write(&place, &v, false)?;
                Ok(Value::Boxed(Pointer::with_prov(
                    id,
                    tag,
                    base,
                    t.into_owned(),
                )))
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
                    return Err(Self::ub(UbKind::NoProvenance, "box_from_raw"));
                };
                let a = self
                    .mem
                    .alloc(alloc)
                    .ok_or_else(|| Self::ub(UbKind::UseAfterFree, "box_from_raw"))?;
                if a.kind != AllocKind::Heap {
                    return Err(Exc::Ub(
                        UbKind::Precondition,
                        "box_from_raw of a pointer not from the heap".into(),
                    ));
                }
                if !a.live {
                    return Err(Self::ub(UbKind::UseAfterFree, "box_from_raw"));
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
                            return Err(Self::ub(UbKind::NoProvenance, "drop_box"));
                        };
                        let (size, align) = self
                            .mem
                            .alloc(alloc)
                            .map(|a| (a.size, a.align))
                            .ok_or_else(|| Self::ub(UbKind::UseAfterFree, "drop_box"))?;
                        self.mem
                            .deallocate(alloc, size, align)
                            .map_err(|k| Self::ub(k, "drop_box"))?;
                        Ok(Value::Unit)
                    }
                    other => Err(Exc::Ub(
                        UbKind::IllFormed,
                        format!("drop_box of {}", other.render()),
                    )),
                }
            }
            BuiltinKind::GetUnchecked => {
                let t = ty0(rb_lang::IntTy::I32);
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
                let place = self.place_at(p.prov, addr, t, "get_unchecked")?;
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
                let t = ty0(rb_lang::IntTy::U32);
                let v = self.eval(&args[0])?;
                let n = ty_size(self.prog, &t).unwrap_or(4);
                let src_ty = Ty::Array(Box::new(Ty::Int(rb_lang::IntTy::U8)), n);
                let bytes =
                    to_bytes(self.prog, &v, &src_ty).map_err(|k| Self::ub(k, "from_le_bytes"))?;
                from_bytes(self.prog, &bytes, &t).map_err(|k| Self::ub(k, "from_le_bytes"))
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
                Ok(Value::Int(p.addr as i128, rb_lang::IntTy::Usize))
            }
            BuiltinKind::CopyNonoverlapping => {
                let t = ty0(rb_lang::IntTy::U8);
                let src = self.eval_ptr(&args[0])?;
                let dst = self.eval_ptr(&args[1])?;
                let n = self.eval_usize(&args[2])?;
                let es = ty_size(self.prog, &t).unwrap_or(1);
                let len = es * n;
                if src.addr < dst.addr + len as u64 && dst.addr < src.addr + len as u64 {
                    return Err(Exc::Ub(
                        UbKind::Precondition,
                        "copy_nonoverlapping with overlapping ranges".into(),
                    ));
                }
                let sp = self.place_from_pointer(src, "copy src")?;
                let bytes = self
                    .mem
                    .read_bytes(sp.alloc, sp.tag, sp.offset, len, 1)
                    .map_err(|k| Self::ub(k, "copy src"))?;
                self.record_access(sp.alloc, sp.offset, len.max(1), false, false);
                let dp = self.place_from_pointer(dst, "copy dst")?;
                self.mem
                    .write_bytes(dp.alloc, dp.tag, dp.offset, &bytes, 1)
                    .map_err(|k| Self::ub(k, "copy dst"))?;
                self.record_access(dp.alloc, dp.offset, len.max(1), true, false);
                Ok(Value::Unit)
            }
            BuiltinKind::AssumeInitRead => {
                let t = ty0(rb_lang::IntTy::U8);
                let p = self.eval_ptr(&args[0])?;
                let place = self.place_at(p.prov, p.addr, t, "assume_init_read")?;
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

    fn eval_usize(&mut self, e: &'p Expr) -> Result<usize, Exc> {
        let v = self
            .eval(e)?
            .as_int()
            .ok_or_else(|| Exc::Ub(UbKind::IllFormed, "expected integer".into()))?;
        usize::try_from(v).map_err(|_| Exc::Ub(UbKind::IllFormed, "negative size".into()))
    }

    fn eval_int(&mut self, e: &'p Expr) -> Result<(i128, rb_lang::IntTy), Exc> {
        match self.eval(e)? {
            Value::Int(v, t) => Ok((v, t)),
            other => Err(Exc::Ub(
                UbKind::IllFormed,
                format!("expected integer, got {}", other.render()),
            )),
        }
    }

    fn eval_ptr(&mut self, e: &'p Expr) -> Result<Pointer, Exc> {
        match self.eval(e)? {
            Value::Ptr(p) | Value::Ref(p) | Value::Boxed(p) => Ok(p),
            other => Err(Exc::Ub(
                UbKind::IllFormed,
                format!("expected pointer, got {}", other.render()),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rb_lang::parser::parse_program;

    #[test]
    fn race_log_holds_only_concurrent_accesses() {
        // G is touched by main before the spawns and after the join (never
        // concurrent), by main between them, and by both threads.
        let p = parse_program(
            "static mut G: i32 = 0; fn main() { \
             unsafe { G = 1; } \
             spawn { unsafe { G = 2; } } \
             spawn { unsafe { print(G); } } \
             unsafe { G = 5; } \
             join; \
             unsafe { print(G); } }",
        )
        .unwrap();
        let mut m = Machine::new(&p, MiriConfig::default());
        m.run();
        let logged: Vec<(usize, bool)> = m
            .log
            .accesses()
            .iter()
            .map(|a| {
                assert!(a.concurrent, "non-concurrent access logged: {a:?}");
                (a.thread, a.write)
            })
            .collect();
        // main's write inside the window, then the threads in join order
        // (the last spawned runs first, as thread 1).
        assert_eq!(logged, vec![(0, true), (1, false), (2, true)]);
        let report = m.finish();
        let races: Vec<String> = report
            .errors
            .iter()
            .map(|e| format!("{:?} {} {:?} {}", e.kind, e.message, e.path, e.thread))
            .collect();
        let at = |i: usize| Some(StmtPath::top(0, i));
        assert_eq!(
            races,
            vec![
                format!(
                    "RaceOnStatic data race: read-write conflict between thread 0 and thread 1 {:?} 1",
                    at(3)
                ),
                format!(
                    "RaceOnStatic data race: write-write conflict between thread 0 and thread 2 {:?} 2",
                    at(3)
                ),
                format!(
                    "RaceOnStatic data race: read-write conflict between thread 1 and thread 2 {:?} 2",
                    at(2)
                ),
            ]
        );
        assert_eq!(report.outputs, vec!["5", "2"]);
    }
}
