//! User-defined functions.
//!
//! SIEVE's ∆ operator (paper Section 5.2) is implemented as a UDF layered on
//! the engine, exactly as the paper layers it on MySQL/PostgreSQL. The
//! registry charges the fixed invocation overhead (`UDF_inv`) on every call;
//! whatever work the UDF body does (policy fetches, per-policy evaluation —
//! the paper's `UDF_exec`) the body charges itself, to the calling run's
//! [`Tally`] it receives in its [`UdfContext`].

use crate::error::{DbError, DbResult};
use crate::stats::Tally;
use crate::value::Value;
use std::collections::HashMap;
use std::sync::Arc;

/// Context handed to a UDF invocation.
pub struct UdfContext<'a> {
    /// The calling run's tally; UDF bodies charge their work here.
    pub tally: &'a Tally,
}

/// A user-defined scalar function.
pub trait Udf: Send + Sync {
    /// Invoke the function on already-evaluated arguments.
    fn invoke(&self, args: &[Value], ctx: &UdfContext<'_>) -> DbResult<Value>;
}

/// Blanket impl so closures register directly.
impl<F> Udf for F
where
    F: Fn(&[Value], &UdfContext<'_>) -> DbResult<Value> + Send + Sync,
{
    fn invoke(&self, args: &[Value], ctx: &UdfContext<'_>) -> DbResult<Value> {
        self(args, ctx)
    }
}

/// Registry of UDFs by (case-insensitive) name.
#[derive(Default, Clone)]
pub struct UdfRegistry {
    funcs: HashMap<String, Arc<dyn Udf>>,
}

impl UdfRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a function, replacing any existing one with the same name.
    pub fn register(&mut self, name: impl Into<String>, f: Arc<dyn Udf>) {
        self.funcs.insert(name.into().to_ascii_lowercase(), f);
    }

    /// Look up a function.
    pub fn get(&self, name: &str) -> DbResult<Arc<dyn Udf>> {
        self.funcs
            .get(&name.to_ascii_lowercase())
            .cloned()
            .ok_or_else(|| DbError::UnknownUdf(name.to_string()))
    }

    /// True iff a function with this name is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.funcs.contains_key(&name.to_ascii_lowercase())
    }

    /// Invoke by name, charging the invocation overhead.
    pub fn invoke(&self, name: &str, args: &[Value], ctx: &UdfContext<'_>) -> DbResult<Value> {
        let f = self.get(name)?;
        ctx.tally.udf_invocation();
        f.invoke(args, ctx)
    }
}

impl std::fmt::Debug for UdfRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut names: Vec<&String> = self.funcs.keys().collect();
        names.sort();
        f.debug_struct("UdfRegistry").field("funcs", &names).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closure_udf_roundtrip() {
        let mut reg = UdfRegistry::new();
        reg.register(
            "double_it",
            Arc::new(|args: &[Value], _ctx: &UdfContext<'_>| {
                let n = args[0]
                    .as_int()
                    .ok_or_else(|| DbError::TypeError("int expected".into()))?;
                Ok(Value::Int(n * 2))
            }),
        );
        let tally = Tally::default();
        let ctx = UdfContext { tally: &tally };
        let out = reg.invoke("DOUBLE_IT", &[Value::Int(21)], &ctx).unwrap();
        assert_eq!(out, Value::Int(42));
        assert_eq!(tally.counters().udf_invocations, 1);
    }

    #[test]
    fn unknown_udf_errors() {
        let reg = UdfRegistry::new();
        let tally = Tally::default();
        let ctx = UdfContext { tally: &tally };
        assert_eq!(
            reg.invoke("nope", &[], &ctx),
            Err(DbError::UnknownUdf("nope".into()))
        );
        // A failed lookup must not charge an invocation.
        assert_eq!(tally.counters().udf_invocations, 0);
    }

    #[test]
    fn registration_is_case_insensitive() {
        let mut reg = UdfRegistry::new();
        reg.register(
            "Delta",
            Arc::new(|_: &[Value], _: &UdfContext<'_>| Ok(Value::Bool(true))),
        );
        assert!(reg.contains("delta"));
        assert!(reg.contains("DELTA"));
    }
}
