//! Runtime values and the abstract byte representation.
//!
//! Memory is a sequence of [`AbByte`]s: each byte is either uninitialised or
//! an initialised octet optionally carrying *provenance* (which allocation
//! and borrow tag a pointer byte belongs to). Typed reads deserialise bytes
//! back into [`Value`]s, enforcing validity invariants exactly where Miri
//! does: a `bool` must be 0/1, a reference must be non-null and carry
//! provenance, integers must be fully initialised.

use crate::diagnostics::UbKind;
use rb_lang::ast::{IntTy, Ty};
use rb_lang::check::ty_size;
use rb_lang::Program;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of an allocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct AllocId(pub u32);

/// Stacked-borrows tag.
pub type BorTag = u64;

/// Provenance carried by a byte.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Prov {
    /// Byte of a pointer into allocation `alloc`, authorised by `tag`.
    Mem {
        /// Target allocation.
        alloc: AllocId,
        /// Borrow tag authorising access.
        tag: BorTag,
    },
    /// Byte of a pointer to function `idx`.
    Fn(usize),
}

/// One byte of abstract memory.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum AbByte {
    /// Never written.
    Uninit,
    /// Initialised octet with optional provenance.
    Init(u8, Option<Prov>),
}

impl AbByte {
    /// The raw octet, if initialised.
    #[must_use]
    pub fn byte(self) -> Option<u8> {
        match self {
            AbByte::Uninit => None,
            AbByte::Init(b, _) => Some(b),
        }
    }
}

/// A pointer value: optional provenance plus an absolute address and the
/// type it points at (tracked dynamically, as casts re-type pointers).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Pointer {
    /// Provenance: the allocation this pointer may access and the borrow
    /// tag authorising it. `None` for integer-derived pointers.
    pub prov: Option<(AllocId, BorTag)>,
    /// Absolute (virtual) address.
    pub addr: u64,
    /// Pointee type.
    pub pointee: Ty,
}

impl Pointer {
    /// A pointer with full provenance.
    #[must_use]
    pub fn with_prov(alloc: AllocId, tag: BorTag, addr: u64, pointee: Ty) -> Pointer {
        Pointer {
            prov: Some((alloc, tag)),
            addr,
            pointee,
        }
    }

    /// An integer-derived pointer without provenance.
    #[must_use]
    pub fn from_addr(addr: u64, pointee: Ty) -> Pointer {
        Pointer {
            prov: None,
            addr,
            pointee,
        }
    }

    /// Returns a copy re-typed to point at `pointee`.
    #[must_use]
    pub fn retype(&self, pointee: Ty) -> Pointer {
        Pointer {
            prov: self.prov,
            addr: self.addr,
            pointee,
        }
    }
}

/// A runtime value.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Value {
    /// `()`.
    Unit,
    /// Boolean.
    Bool(bool),
    /// Integer with its type.
    Int(i128, IntTy),
    /// Raw pointer.
    Ptr(Pointer),
    /// Reference (same representation; validity rules differ).
    Ref(Pointer),
    /// Owning box.
    Boxed(Pointer),
    /// Function pointer; `None` when forged from a non-function address.
    FnPtr(Option<usize>),
    /// Tuple of values.
    Tuple(Vec<Value>),
    /// Array of values.
    Array(Vec<Value>),
    /// Union value stored as raw bytes.
    Union {
        /// Union type name.
        name: String,
        /// Raw storage (padded to the union's size).
        bytes: Vec<AbByte>,
    },
}

impl Value {
    /// Integer accessor.
    #[must_use]
    pub fn as_int(&self) -> Option<i128> {
        match self {
            Value::Int(v, _) => Some(*v),
            _ => None,
        }
    }

    /// Boolean accessor.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Pointer accessor (raw pointers, references and boxes all qualify).
    #[must_use]
    pub fn as_pointer(&self) -> Option<&Pointer> {
        match self {
            Value::Ptr(p) | Value::Ref(p) | Value::Boxed(p) => Some(p),
            _ => None,
        }
    }

    /// Renders a value for `print` output. Pointers render without their
    /// address so observable behaviour is allocation-order independent.
    #[must_use]
    pub fn render(&self) -> String {
        match self {
            Value::Unit => "()".into(),
            Value::Bool(b) => b.to_string(),
            Value::Int(v, _) => v.to_string(),
            Value::Ptr(_) => "<ptr>".into(),
            Value::Ref(_) => "<ref>".into(),
            Value::Boxed(_) => "<box>".into(),
            Value::FnPtr(_) => "<fn>".into(),
            Value::Tuple(xs) => {
                let inner: Vec<String> = xs.iter().map(Value::render).collect();
                format!("({})", inner.join(", "))
            }
            Value::Array(xs) => {
                let inner: Vec<String> = xs.iter().map(Value::render).collect();
                format!("[{}]", inner.join(", "))
            }
            Value::Union { .. } => "<union>".into(),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render())
    }
}

/// Base address of the synthetic function-pointer region.
pub const FN_PTR_BASE: u64 = 0xF000_0000_0000;

/// Address of the function pointer for function index `idx`.
#[must_use]
pub fn fn_ptr_addr(idx: usize) -> u64 {
    FN_PTR_BASE + (idx as u64) * 16
}

/// Serialises a value of type `ty` into abstract bytes.
///
/// # Errors
///
/// [`UbKind::TransmuteSize`] when the value's shape cannot fill `ty`
/// (e.g. wrong-arity tuples) — callers treat this as a transmute/layout
/// failure.
pub fn to_bytes(prog: &Program, v: &Value, ty: &Ty) -> Result<Vec<AbByte>, UbKind> {
    let mut out = Vec::new();
    to_bytes_into(prog, v, ty, &mut out)?;
    Ok(out)
}

/// [`to_bytes`] into a caller's buffer, which is cleared first, so a
/// reused buffer serialises without allocating.
///
/// # Errors
///
/// As [`to_bytes`].
pub fn to_bytes_into(
    prog: &Program,
    v: &Value,
    ty: &Ty,
    out: &mut Vec<AbByte>,
) -> Result<(), UbKind> {
    let size = ty_size(prog, ty).ok_or(UbKind::TransmuteSize)?;
    out.clear();
    out.reserve(size);
    fill_bytes(v, ty, out)?;
    // Pad unions / short values with uninit.
    out.resize(size, AbByte::Uninit);
    Ok(())
}

fn push_int(out: &mut Vec<AbByte>, v: i128, bytes: usize) {
    let raw = (v as u128).to_le_bytes();
    for b in raw.iter().take(bytes) {
        out.push(AbByte::Init(*b, None));
    }
}

fn push_ptr(out: &mut Vec<AbByte>, p: &Pointer) {
    let raw = p.addr.to_le_bytes();
    let prov = p.prov.map(|(a, t)| Prov::Mem { alloc: a, tag: t });
    for b in raw {
        out.push(AbByte::Init(b, prov));
    }
}

fn fill_bytes(v: &Value, ty: &Ty, out: &mut Vec<AbByte>) -> Result<(), UbKind> {
    match (v, ty) {
        (Value::Unit, Ty::Unit) => Ok(()),
        (Value::Bool(b), Ty::Bool) => {
            out.push(AbByte::Init(u8::from(*b), None));
            Ok(())
        }
        (Value::Int(v, _), Ty::Int(t)) => {
            push_int(out, t.wrap(*v), t.size());
            Ok(())
        }
        (Value::Int(v, t), Ty::Bool) => {
            // Writing an int where a bool lives (through a typed pointer):
            // keep the raw byte; validity is checked on the next typed read.
            let _ = t;
            out.push(AbByte::Init((*v as u128 & 0xFF) as u8, None));
            Ok(())
        }
        (
            Value::Ptr(p) | Value::Ref(p) | Value::Boxed(p),
            Ty::RawPtr(..) | Ty::Ref(..) | Ty::Boxed(_) | Ty::Int(IntTy::Usize),
        ) => {
            push_ptr(out, p);
            Ok(())
        }
        (Value::FnPtr(idx), _) => {
            // Forged function pointers serialise to a nonzero sentinel so
            // the "forged" property round-trips through memory (a zero
            // address would deserialise as a null-reference validity error
            // instead of a callable-but-invalid pointer).
            let addr = idx.map_or(0xDEAD_0000, fn_ptr_addr);
            let raw = addr.to_le_bytes();
            let prov = idx.map(Prov::Fn);
            for b in raw {
                out.push(AbByte::Init(b, prov));
            }
            Ok(())
        }
        (Value::Tuple(xs), Ty::Tuple(ts)) if xs.len() == ts.len() => {
            for (x, t) in xs.iter().zip(ts) {
                fill_bytes(x, t, out)?;
            }
            Ok(())
        }
        (Value::Array(xs), Ty::Array(elem, n)) if xs.len() == *n => {
            for x in xs {
                fill_bytes(x, elem, out)?;
            }
            Ok(())
        }
        (Value::Union { bytes, .. }, Ty::Union(_)) => {
            out.extend_from_slice(bytes);
            Ok(())
        }
        // Serialising any value into a union's storage or into raw bytes:
        // delegate via its natural type when sizes work out.
        (Value::Int(v, t), _) => {
            push_int(out, t.wrap(*v), t.size());
            Ok(())
        }
        _ => Err(UbKind::TransmuteSize),
    }
}

/// Deserialises bytes at type `ty`.
///
/// # Errors
///
/// - [`UbKind::UninitRead`] when required bytes are uninitialised,
/// - [`UbKind::InvalidValue`] for out-of-range `bool`s,
/// - [`UbKind::InvalidRef`] for null or provenance-less references,
/// - [`UbKind::TransmuteSize`] when `bytes` is shorter than `ty` requires.
pub fn from_bytes(prog: &Program, bytes: &[AbByte], ty: &Ty) -> Result<Value, UbKind> {
    let size = ty_size(prog, ty).ok_or(UbKind::TransmuteSize)?;
    if bytes.len() < size {
        return Err(UbKind::TransmuteSize);
    }
    read_value(prog, &bytes[..size], ty)
}

fn read_uint(bytes: &[AbByte]) -> Result<u128, UbKind> {
    let mut v: u128 = 0;
    for (i, b) in bytes.iter().enumerate() {
        match b.byte() {
            Some(x) => v |= u128::from(x) << (8 * i),
            None => return Err(UbKind::UninitRead),
        }
    }
    Ok(v)
}

fn read_ptr_parts(bytes: &[AbByte]) -> Result<(u64, Option<Prov>), UbKind> {
    let addr = read_uint(&bytes[..8])? as u64;
    let first = match bytes[0] {
        AbByte::Init(_, p) => p,
        AbByte::Uninit => return Err(UbKind::UninitRead),
    };
    let uniform = bytes[..8]
        .iter()
        .all(|b| matches!(b, AbByte::Init(_, p) if *p == first));
    Ok((addr, if uniform { first } else { None }))
}

fn read_value(prog: &Program, bytes: &[AbByte], ty: &Ty) -> Result<Value, UbKind> {
    match ty {
        Ty::Unit => Ok(Value::Unit),
        Ty::Bool => match bytes[0].byte() {
            None => Err(UbKind::UninitRead),
            Some(0) => Ok(Value::Bool(false)),
            Some(1) => Ok(Value::Bool(true)),
            Some(_) => Err(UbKind::InvalidValue),
        },
        Ty::Int(t) => {
            let raw = read_uint(bytes)?;
            Ok(Value::Int(t.wrap(raw as i128), *t))
        }
        Ty::RawPtr(inner, _) => {
            let (addr, prov) = read_ptr_parts(bytes)?;
            let prov = match prov {
                Some(Prov::Mem { alloc, tag }) => Some((alloc, tag)),
                _ => None,
            };
            Ok(Value::Ptr(Pointer {
                prov,
                addr,
                pointee: (**inner).clone(),
            }))
        }
        Ty::Ref(inner, _) | Ty::Boxed(inner) => {
            let (addr, prov) = read_ptr_parts(bytes)?;
            let prov = match prov {
                Some(Prov::Mem { alloc, tag }) => Some((alloc, tag)),
                _ => None,
            };
            if addr == 0 || prov.is_none() {
                return Err(UbKind::InvalidRef);
            }
            let p = Pointer {
                prov,
                addr,
                pointee: (**inner).clone(),
            };
            if matches!(ty, Ty::Boxed(_)) {
                Ok(Value::Boxed(p))
            } else {
                Ok(Value::Ref(p))
            }
        }
        Ty::FnPtr(..) => {
            let (addr, prov) = read_ptr_parts(bytes)?;
            match prov {
                Some(Prov::Fn(idx)) => Ok(Value::FnPtr(Some(idx))),
                _ if addr == 0 => Err(UbKind::InvalidRef),
                _ => Ok(Value::FnPtr(None)),
            }
        }
        Ty::Tuple(ts) => {
            let mut out = Vec::with_capacity(ts.len());
            let mut off = 0usize;
            for t in ts {
                let s = ty_size(prog, t).ok_or(UbKind::TransmuteSize)?;
                out.push(read_value(prog, &bytes[off..off + s], t)?);
                off += s;
            }
            Ok(Value::Tuple(out))
        }
        Ty::Array(elem, n) => {
            let s = ty_size(prog, elem).ok_or(UbKind::TransmuteSize)?;
            let mut out = Vec::with_capacity(*n);
            for i in 0..*n {
                out.push(read_value(prog, &bytes[i * s..(i + 1) * s], elem)?);
            }
            Ok(Value::Array(out))
        }
        Ty::Union(name) => Ok(Value::Union {
            name: name.clone(),
            bytes: bytes.to_vec(),
        }),
    }
}

/// Loose runtime type agreement used for function-pointer signature checks.
#[must_use]
pub fn value_matches_ty(v: &Value, ty: &Ty) -> bool {
    match (v, ty) {
        (Value::Unit, Ty::Unit)
        | (Value::Bool(_), Ty::Bool)
        | (Value::Ptr(_), Ty::RawPtr(..))
        | (Value::Ref(_), Ty::Ref(..))
        | (Value::Boxed(_), Ty::Boxed(_))
        | (Value::FnPtr(_), Ty::FnPtr(..))
        | (Value::Union { .. }, Ty::Union(_)) => true,
        (Value::Int(_, a), Ty::Int(b)) => a == b,
        (Value::Tuple(xs), Ty::Tuple(ts)) => {
            xs.len() == ts.len() && xs.iter().zip(ts).all(|(x, t)| value_matches_ty(x, t))
        }
        (Value::Array(xs), Ty::Array(t, n)) => {
            xs.len() == *n && xs.iter().all(|x| value_matches_ty(x, t))
        }
        _ => false,
    }
}

/// The default value of a type (used for static initialisation padding).
#[must_use]
pub fn zero_value(ty: &Ty) -> Value {
    match ty {
        Ty::Unit => Value::Unit,
        Ty::Bool => Value::Bool(false),
        Ty::Int(t) => Value::Int(0, *t),
        Ty::RawPtr(inner, _) => Value::Ptr(Pointer::from_addr(0, (**inner).clone())),
        Ty::Ref(inner, _) => Value::Ref(Pointer::from_addr(0, (**inner).clone())),
        Ty::Boxed(inner) => Value::Boxed(Pointer::from_addr(0, (**inner).clone())),
        Ty::FnPtr(..) => Value::FnPtr(None),
        Ty::Tuple(ts) => Value::Tuple(ts.iter().map(zero_value).collect()),
        Ty::Array(t, n) => Value::Array(vec![zero_value(t); *n]),
        Ty::Union(name) => Value::Union {
            name: name.clone(),
            bytes: Vec::new(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rb_lang::ast::Mutability;
    use rb_lang::parser::parse_program;

    fn prog() -> Program {
        parse_program("union B { i: i32, u: u32 } fn main() { }").unwrap()
    }

    #[test]
    fn int_roundtrip() {
        let p = prog();
        for (v, t) in [(0i128, IntTy::U8), (-7, IntTy::I32), (1 << 40, IntTy::U64)] {
            let val = Value::Int(v, t);
            let bytes = to_bytes(&p, &val, &Ty::Int(t)).unwrap();
            assert_eq!(bytes.len(), t.size());
            let back = from_bytes(&p, &bytes, &Ty::Int(t)).unwrap();
            assert_eq!(back, val);
        }
    }

    #[test]
    fn bool_validity() {
        let p = prog();
        let bytes = vec![AbByte::Init(2, None)];
        assert_eq!(from_bytes(&p, &bytes, &Ty::Bool), Err(UbKind::InvalidValue));
        let bytes = vec![AbByte::Init(1, None)];
        assert_eq!(from_bytes(&p, &bytes, &Ty::Bool), Ok(Value::Bool(true)));
    }

    #[test]
    fn uninit_read_detected() {
        let p = prog();
        let bytes = vec![AbByte::Uninit; 4];
        assert_eq!(
            from_bytes(&p, &bytes, &Ty::Int(IntTy::I32)),
            Err(UbKind::UninitRead)
        );
    }

    #[test]
    fn pointer_roundtrip_preserves_provenance() {
        let p = prog();
        let ptr = Pointer::with_prov(AllocId(3), 7, 0x1000, Ty::Int(IntTy::I32));
        let ty = Ty::raw(Ty::Int(IntTy::I32), Mutability::Mut);
        let bytes = to_bytes(&p, &Value::Ptr(ptr.clone()), &ty).unwrap();
        let back = from_bytes(&p, &bytes, &ty).unwrap();
        assert_eq!(back, Value::Ptr(ptr));
    }

    #[test]
    fn int_to_ref_is_invalid() {
        let p = prog();
        // 8 bytes of plain integer data (no provenance) read as a reference.
        let v = Value::Int(0x2000, IntTy::Usize);
        let bytes = to_bytes(&p, &v, &Ty::Int(IntTy::Usize)).unwrap();
        let ty = Ty::reference(Ty::Int(IntTy::I32), Mutability::Not);
        assert_eq!(from_bytes(&p, &bytes, &ty), Err(UbKind::InvalidRef));
    }

    #[test]
    fn null_ref_is_invalid() {
        let p = prog();
        let bytes = vec![AbByte::Init(0, None); 8];
        let ty = Ty::reference(Ty::Bool, Mutability::Not);
        assert_eq!(from_bytes(&p, &bytes, &ty), Err(UbKind::InvalidRef));
    }

    #[test]
    fn transmute_size_mismatch() {
        let p = prog();
        let v = Value::Int(5, IntTy::U16);
        let bytes = to_bytes(&p, &v, &Ty::Int(IntTy::U16)).unwrap();
        assert_eq!(
            from_bytes(&p, &bytes, &Ty::Int(IntTy::U32)),
            Err(UbKind::TransmuteSize)
        );
    }

    #[test]
    fn bytes_to_u32_from_u8_array() {
        let p = prog();
        let arr = Value::Array(vec![
            Value::Int(0x17, IntTy::U8),
            Value::Int(0x07, IntTy::U8),
            Value::Int(0, IntTy::U8),
            Value::Int(0, IntTy::U8),
        ]);
        let ty = Ty::Array(Box::new(Ty::Int(IntTy::U8)), 4);
        let bytes = to_bytes(&p, &arr, &ty).unwrap();
        let back = from_bytes(&p, &bytes, &Ty::Int(IntTy::U32)).unwrap();
        assert_eq!(back, Value::Int(0x0717, IntTy::U32));
    }

    #[test]
    fn fn_ptr_roundtrip() {
        let p = prog();
        let ty = Ty::FnPtr(vec![Ty::Int(IntTy::I32)], Box::new(Ty::Int(IntTy::I32)));
        let bytes = to_bytes(&p, &Value::FnPtr(Some(2)), &ty).unwrap();
        assert_eq!(from_bytes(&p, &bytes, &ty), Ok(Value::FnPtr(Some(2))));
        // Forged: integer bytes interpreted as fn ptr.
        let forged = to_bytes(
            &p,
            &Value::Int(0x1234, IntTy::Usize),
            &Ty::Int(IntTy::Usize),
        )
        .unwrap();
        assert_eq!(from_bytes(&p, &forged, &ty), Ok(Value::FnPtr(None)));
    }

    #[test]
    fn union_bytes_passthrough() {
        let p = prog();
        let v = Value::Union {
            name: "B".into(),
            bytes: vec![
                AbByte::Init(1, None),
                AbByte::Init(2, None),
                AbByte::Init(3, None),
                AbByte::Init(4, None),
            ],
        };
        let bytes = to_bytes(&p, &v, &Ty::Union("B".into())).unwrap();
        assert_eq!(bytes.len(), 4);
        let back = from_bytes(&p, &bytes, &Ty::Int(IntTy::U32)).unwrap();
        assert_eq!(back, Value::Int(0x0403_0201, IntTy::U32));
    }

    #[test]
    fn tuple_roundtrip() {
        let p = prog();
        let ty = Ty::Tuple(vec![Ty::Int(IntTy::U8), Ty::Int(IntTy::U16)]);
        let v = Value::Tuple(vec![Value::Int(9, IntTy::U8), Value::Int(300, IntTy::U16)]);
        let bytes = to_bytes(&p, &v, &ty).unwrap();
        assert_eq!(bytes.len(), 3);
        assert_eq!(from_bytes(&p, &bytes, &ty).unwrap(), v);
    }

    #[test]
    fn render_is_address_free() {
        let ptr = Value::Ptr(Pointer::with_prov(AllocId(1), 1, 0xdead, Ty::Bool));
        assert_eq!(ptr.render(), "<ptr>");
        assert_eq!(Value::Int(-3, IntTy::I8).render(), "-3");
        assert_eq!(
            Value::Tuple(vec![Value::Bool(true), Value::Unit]).render(),
            "(true, ())"
        );
    }
}
