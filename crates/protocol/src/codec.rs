//! Fail-closed binary codec for protocol payloads.
//!
//! All integers are little-endian. Strings and sequences are
//! length-prefixed with a `u32` count. Decoding goes through a bounded
//! [`Reader`] cursor: every read checks the remaining length and errors
//! with [`ProtocolError::Truncated`] instead of reading past the end, and
//! message decoders call [`Reader::finish`] so trailing garbage is
//! rejected rather than silently ignored. There is no partial decode: a
//! frame either yields exactly one well-formed value or an error.

use minidb::exec::QueryResult;
use minidb::table::Row;
use minidb::value::Value;
use sieve_core::policy::QueryMetadata;

use crate::error::{ProtocolError, ProtocolResult};

/// Bounded cursor over a received frame's payload.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wrap a payload for decoding.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, context: &'static str) -> ProtocolResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(ProtocolError::Truncated { context });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self, context: &'static str) -> ProtocolResult<u8> {
        Ok(self.take(1, context)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self, context: &'static str) -> ProtocolResult<u32> {
        let b = self.take(4, context)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian `i32`.
    pub fn i32(&mut self, context: &'static str) -> ProtocolResult<i32> {
        Ok(self.u32(context)? as i32)
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self, context: &'static str) -> ProtocolResult<u64> {
        let b = self.take(8, context)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Read a little-endian `i64`.
    pub fn i64(&mut self, context: &'static str) -> ProtocolResult<i64> {
        Ok(self.u64(context)? as i64)
    }

    /// Read an IEEE-754 `f64` (bit pattern, little-endian).
    pub fn f64(&mut self, context: &'static str) -> ProtocolResult<f64> {
        Ok(f64::from_bits(self.u64(context)?))
    }

    /// Read a `u32`-length-prefixed UTF-8 string.
    pub fn string(&mut self, context: &'static str) -> ProtocolResult<String> {
        let len = self.u32(context)? as usize;
        let bytes = self.take(len, context)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ProtocolError::BadUtf8 { context })
    }

    /// Read a sequence count, bounding it by the bytes actually present so
    /// a hostile count cannot trigger a huge allocation up front. Each
    /// element of any sequence costs at least one byte on the wire.
    pub fn seq_len(&mut self, context: &'static str) -> ProtocolResult<usize> {
        let n = self.u32(context)? as usize;
        if n > self.remaining() {
            return Err(ProtocolError::Truncated { context });
        }
        Ok(n)
    }

    /// Assert the payload was fully consumed.
    pub fn finish(self) -> ProtocolResult<()> {
        if self.remaining() != 0 {
            return Err(ProtocolError::TrailingBytes { extra: self.remaining() });
        }
        Ok(())
    }
}

/// Append-only encoder helpers over a byte buffer.
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Start an empty payload.
    pub fn new() -> Self {
        Writer { buf: Vec::new() }
    }

    /// Consume the writer, yielding the payload bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Write one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian `i32`.
    pub fn i32(&mut self, v: i32) {
        self.u32(v as u32);
    }

    /// Write a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian `i64`.
    pub fn i64(&mut self, v: i64) {
        self.u64(v as u64);
    }

    /// Write an IEEE-754 `f64` bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Write a `u32`-length-prefixed UTF-8 string.
    pub fn string(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

impl Default for Writer {
    fn default() -> Self {
        Writer::new()
    }
}

// Value tags — part of the wire format, do not renumber.
const VAL_NULL: u8 = 0;
const VAL_BOOL: u8 = 1;
const VAL_INT: u8 = 2;
const VAL_STR: u8 = 3;
const VAL_TIME: u8 = 4;
const VAL_DATE: u8 = 5;
const VAL_DOUBLE: u8 = 6;

/// Encode a [`Value`] (tag byte + payload).
pub fn write_value(w: &mut Writer, v: &Value) {
    match v {
        Value::Null => w.u8(VAL_NULL),
        Value::Bool(b) => {
            w.u8(VAL_BOOL);
            w.u8(u8::from(*b));
        }
        Value::Int(i) => {
            w.u8(VAL_INT);
            w.i64(*i);
        }
        Value::Str(s) => {
            w.u8(VAL_STR);
            w.string(s);
        }
        Value::Time(t) => {
            w.u8(VAL_TIME);
            w.u32(*t);
        }
        Value::Date(d) => {
            w.u8(VAL_DATE);
            w.i32(*d);
        }
        Value::Double(d) => {
            w.u8(VAL_DOUBLE);
            w.f64(*d);
        }
    }
}

/// Decode a [`Value`], failing closed on unknown tags or malformed
/// payloads (a bool byte other than 0/1 is rejected, not coerced).
pub fn read_value(r: &mut Reader<'_>) -> ProtocolResult<Value> {
    let tag = r.u8("value tag")?;
    Ok(match tag {
        VAL_NULL => Value::Null,
        VAL_BOOL => match r.u8("bool value")? {
            0 => Value::Bool(false),
            1 => Value::Bool(true),
            other => return Err(ProtocolError::UnknownTag { context: "bool value", tag: other }),
        },
        VAL_INT => Value::Int(r.i64("int value")?),
        VAL_STR => Value::from(r.string("string value")?),
        VAL_TIME => Value::Time(r.u32("time value")?),
        VAL_DATE => Value::Date(r.i32("date value")?),
        VAL_DOUBLE => Value::Double(r.f64("double value")?),
        other => return Err(ProtocolError::UnknownTag { context: "value", tag: other }),
    })
}

/// Encode [`QueryMetadata`]: querier, purpose, context pairs.
pub fn write_metadata(w: &mut Writer, qm: &QueryMetadata) {
    w.i64(qm.querier);
    w.string(&qm.purpose);
    w.u32(qm.context.len() as u32);
    for (k, v) in &qm.context {
        w.string(k);
        write_value(w, v);
    }
}

/// Decode [`QueryMetadata`].
pub fn read_metadata(r: &mut Reader<'_>) -> ProtocolResult<QueryMetadata> {
    let querier = r.i64("metadata querier")?;
    let purpose = r.string("metadata purpose")?;
    let n = r.seq_len("metadata context")?;
    let mut context = Vec::with_capacity(n);
    for _ in 0..n {
        let k = r.string("context key")?;
        let v = read_value(r)?;
        context.push((k, v));
    }
    Ok(QueryMetadata { querier, purpose, context })
}

/// Encode a [`QueryResult`]: column names then rows of values.
pub fn write_result(w: &mut Writer, res: &QueryResult) {
    w.u32(res.columns.len() as u32);
    for c in &res.columns {
        w.string(c);
    }
    w.u32(res.rows.len() as u32);
    for row in &res.rows {
        w.u32(row.len() as u32);
        for v in row {
            write_value(w, v);
        }
    }
}

/// Decode a [`QueryResult`].
pub fn read_result(r: &mut Reader<'_>) -> ProtocolResult<QueryResult> {
    let ncols = r.seq_len("result columns")?;
    let mut columns = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        columns.push(r.string("column name")?);
    }
    let nrows = r.seq_len("result rows")?;
    let mut rows = Vec::with_capacity(nrows);
    for _ in 0..nrows {
        let ncells = r.seq_len("row cells")?;
        let mut row: Row = Vec::with_capacity(ncells);
        for _ in 0..ncells {
            row.push(read_value(r)?);
        }
        rows.push(row);
    }
    Ok(QueryResult { columns, rows })
}
