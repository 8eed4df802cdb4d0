//! Recursive-descent parser for the SQL subset.

use super::lexer::{promote_literal, tokenize, Token};
use crate::error::{DbError, DbResult};
use crate::expr::{CmpOp, ColumnRef, Expr};
use crate::plan::{
    AggFunc, IndexHint, SelectItem, SelectQuery, TableRef, TableSource, WithClause,
};
use crate::value::Value;

/// Parse a SQL string into a [`SelectQuery`].
pub fn parse(sql: &str) -> DbResult<SelectQuery> {
    let tokens = tokenize(sql)?;
    let mut p = Parser { tokens, pos: 0 };
    let q = p.parse_query()?;
    p.eat_if(&Token::Semi);
    if p.pos != p.tokens.len() {
        return Err(DbError::Parse(format!(
            "trailing tokens starting at {:?}",
            p.peek()
        )));
    }
    Ok(q)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn peek2(&self) -> Option<&Token> {
        self.tokens.get(self.pos + 1)
    }

    fn next(&mut self) -> DbResult<Token> {
        let t = self
            .tokens
            .get(self.pos)
            .cloned()
            .ok_or_else(|| DbError::Parse("unexpected end of input".into()))?;
        self.pos += 1;
        Ok(t)
    }

    fn expect(&mut self, t: &Token) -> DbResult<()> {
        let got = self.next()?;
        if &got == t {
            Ok(())
        } else {
            Err(DbError::Parse(format!("expected {t:?}, got {got:?}")))
        }
    }

    fn eat_if(&mut self, t: &Token) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// True iff the next token is the keyword `kw` (case-insensitive).
    fn peek_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek_kw(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> DbResult<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(DbError::Parse(format!(
                "expected keyword {kw}, got {:?}",
                self.peek()
            )))
        }
    }

    fn ident(&mut self) -> DbResult<String> {
        match self.next()? {
            Token::Ident(s) => Ok(s),
            other => Err(DbError::Parse(format!("expected identifier, got {other:?}"))),
        }
    }

    fn parse_query(&mut self) -> DbResult<SelectQuery> {
        let mut with = Vec::new();
        if self.eat_kw("WITH") {
            loop {
                let name = self.ident()?;
                self.expect_kw("AS")?;
                self.expect(&Token::LParen)?;
                let q = self.parse_query()?;
                self.expect(&Token::RParen)?;
                with.push(WithClause { name, query: q });
                if !self.eat_if(&Token::Comma) {
                    break;
                }
            }
        }
        self.expect_kw("SELECT")?;
        let select = self.parse_select_list()?;
        self.expect_kw("FROM")?;
        let from = self.parse_from_list()?;
        let predicate = if self.eat_kw("WHERE") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_kw("GROUP") {
            self.expect_kw("BY")?;
            loop {
                group_by.push(self.parse_column_ref()?);
                if !self.eat_if(&Token::Comma) {
                    break;
                }
            }
        }
        let limit = if self.eat_kw("LIMIT") {
            match self.next()? {
                Token::Int(n) if n >= 0 => Some(n as usize),
                other => return Err(DbError::Parse(format!("bad LIMIT {other:?}"))),
            }
        } else {
            None
        };
        Ok(SelectQuery {
            with,
            select,
            from,
            predicate,
            group_by,
            limit,
        })
    }

    fn parse_select_list(&mut self) -> DbResult<Vec<SelectItem>> {
        let mut items = Vec::new();
        loop {
            items.push(self.parse_select_item()?);
            if !self.eat_if(&Token::Comma) {
                break;
            }
        }
        Ok(items)
    }

    fn agg_func(name: &str) -> Option<AggFunc> {
        match name.to_ascii_uppercase().as_str() {
            "COUNT" => Some(AggFunc::Count),
            "SUM" => Some(AggFunc::Sum),
            "MIN" => Some(AggFunc::Min),
            "MAX" => Some(AggFunc::Max),
            "AVG" => Some(AggFunc::Avg),
            _ => None,
        }
    }

    fn parse_select_item(&mut self) -> DbResult<SelectItem> {
        if self.eat_if(&Token::Star) {
            return Ok(SelectItem::Star);
        }
        // Aggregate: IDENT '(' …
        if let (Some(Token::Ident(name)), Some(Token::LParen)) = (self.peek(), self.peek2()) {
            if let Some(mut func) = Self::agg_func(name) {
                self.pos += 2; // consume IDENT '('
                let distinct = self.eat_kw("DISTINCT");
                let column = if self.eat_if(&Token::Star) {
                    None
                } else {
                    Some(self.parse_column_ref()?)
                };
                if distinct {
                    if func != AggFunc::Count {
                        return Err(DbError::Parse(
                            "DISTINCT only supported in COUNT".into(),
                        ));
                    }
                    func = AggFunc::CountDistinct;
                }
                self.expect(&Token::RParen)?;
                let alias = self.parse_alias()?;
                return Ok(SelectItem::Aggregate {
                    func,
                    column,
                    alias,
                });
            }
        }
        let column = self.parse_column_ref()?;
        let alias = self.parse_alias()?;
        Ok(SelectItem::Column { column, alias })
    }

    /// Optional `[AS] alias` — only when the next identifier is not a
    /// clause keyword.
    fn parse_alias(&mut self) -> DbResult<Option<String>> {
        if self.eat_kw("AS") {
            return Ok(Some(self.ident()?));
        }
        const CLAUSE_KWS: [&str; 10] = [
            "FROM", "WHERE", "GROUP", "LIMIT", "ON", "AND", "OR", "ORDER", "FORCE", "USE",
        ];
        if let Some(Token::Ident(s)) = self.peek() {
            if !CLAUSE_KWS.iter().any(|k| s.eq_ignore_ascii_case(k)) {
                let s = s.clone();
                self.pos += 1;
                return Ok(Some(s));
            }
        }
        Ok(None)
    }

    fn parse_from_list(&mut self) -> DbResult<Vec<TableRef>> {
        let mut out = Vec::new();
        loop {
            out.push(self.parse_table_ref()?);
            if !self.eat_if(&Token::Comma) {
                break;
            }
        }
        Ok(out)
    }

    fn parse_table_ref(&mut self) -> DbResult<TableRef> {
        let (source, default_alias) = if self.eat_if(&Token::LParen) {
            let q = self.parse_query()?;
            self.expect(&Token::RParen)?;
            (TableSource::Derived(Box::new(q)), None)
        } else {
            let name = self.ident()?;
            (TableSource::Named(name.clone()), Some(name))
        };
        let alias = self.parse_alias()?;
        let alias = match (alias, default_alias) {
            (Some(a), _) => a,
            (None, Some(d)) => d,
            (None, None) => {
                return Err(DbError::Parse("derived table requires an alias".into()))
            }
        };
        // Index hints: FORCE INDEX (cols…) | USE INDEX ().
        let mut hint = IndexHint::None;
        if self.eat_kw("FORCE") {
            self.expect_kw("INDEX")?;
            self.expect(&Token::LParen)?;
            let mut cols = Vec::new();
            if self.peek() != Some(&Token::RParen) {
                loop {
                    cols.push(self.ident()?);
                    if !self.eat_if(&Token::Comma) {
                        break;
                    }
                }
            }
            self.expect(&Token::RParen)?;
            hint = IndexHint::Force(cols);
        } else if self.eat_kw("USE") {
            self.expect_kw("INDEX")?;
            self.expect(&Token::LParen)?;
            self.expect(&Token::RParen)?;
            hint = IndexHint::IgnoreAll;
        }
        Ok(TableRef {
            source,
            alias,
            hint,
        })
    }

    fn parse_column_ref(&mut self) -> DbResult<ColumnRef> {
        let first = self.ident()?;
        if self.eat_if(&Token::Dot) {
            let col = self.ident()?;
            Ok(ColumnRef::qualified(first, col))
        } else {
            Ok(ColumnRef::bare(first))
        }
    }

    // ---- expressions ----

    fn parse_expr(&mut self) -> DbResult<Expr> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> DbResult<Expr> {
        let mut e = self.parse_and()?;
        while self.eat_kw("OR") {
            let rhs = self.parse_and()?;
            e = Expr::or(e, rhs);
        }
        Ok(e)
    }

    fn parse_and(&mut self) -> DbResult<Expr> {
        let mut e = self.parse_not()?;
        while self.eat_kw("AND") {
            let rhs = self.parse_not()?;
            e = Expr::and(e, rhs);
        }
        Ok(e)
    }

    fn parse_not(&mut self) -> DbResult<Expr> {
        if self.eat_kw("NOT") {
            Ok(Expr::Not(Box::new(self.parse_not()?)))
        } else {
            self.parse_predicate()
        }
    }

    /// A predicate: an operand optionally followed by a comparison tail.
    fn parse_predicate(&mut self) -> DbResult<Expr> {
        // Parenthesized boolean expression vs. scalar subquery vs. operand
        // grouping: '(' SELECT → subquery operand; otherwise parse as a
        // boolean expression (which also covers parenthesized operands in
        // comparisons because an operand alone is a valid expression).
        if self.peek() == Some(&Token::LParen) && !self.next_is_select() {
            self.pos += 1;
            let e = self.parse_expr()?;
            self.expect(&Token::RParen)?;
            // Allow a comparison tail after a parenthesized operand, e.g.
            // `(a) = 3` — only if `e` is a scalar shape.
            if self.peek_cmp_op().is_some() {
                return self.parse_tail(e);
            }
            return Ok(e);
        }
        let operand = self.parse_operand()?;
        self.parse_tail(operand)
    }

    fn parse_tail(&mut self, operand: Expr) -> DbResult<Expr> {
        if let Some(op) = self.peek_cmp_op() {
            self.pos += 1;
            let rhs = self.parse_operand()?;
            return Ok(Expr::Cmp {
                op,
                lhs: Box::new(operand),
                rhs: Box::new(rhs),
            });
        }
        let negated = self.eat_kw("NOT");
        if self.eat_kw("BETWEEN") {
            let low = self.parse_operand()?;
            self.expect_kw("AND")?;
            let high = self.parse_operand()?;
            return Ok(Expr::Between {
                expr: Box::new(operand),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }
        if self.eat_kw("IN") {
            self.expect(&Token::LParen)?;
            let mut list = Vec::new();
            if self.peek() != Some(&Token::RParen) {
                loop {
                    list.push(self.parse_operand()?);
                    if !self.eat_if(&Token::Comma) {
                        break;
                    }
                }
            }
            self.expect(&Token::RParen)?;
            return Ok(Expr::InList {
                expr: Box::new(operand),
                list,
                negated,
            });
        }
        if negated {
            return Err(DbError::Parse(
                "NOT must be followed by BETWEEN or IN here".into(),
            ));
        }
        if self.eat_kw("IS") {
            let negated = self.eat_kw("NOT");
            self.expect_kw("NULL")?;
            return Ok(Expr::IsNull {
                expr: Box::new(operand),
                negated,
            });
        }
        // Bare operand used as a boolean (e.g. a UDF call or TRUE).
        Ok(operand)
    }

    fn peek_cmp_op(&self) -> Option<CmpOp> {
        match self.peek()? {
            Token::Eq => Some(CmpOp::Eq),
            Token::Ne => Some(CmpOp::Ne),
            Token::Lt => Some(CmpOp::Lt),
            Token::Le => Some(CmpOp::Le),
            Token::Gt => Some(CmpOp::Gt),
            Token::Ge => Some(CmpOp::Ge),
            _ => None,
        }
    }

    fn next_is_select(&self) -> bool {
        matches!(
            (self.peek(), self.peek2()),
            (Some(Token::LParen), Some(Token::Ident(s)))
                if s.eq_ignore_ascii_case("SELECT") || s.eq_ignore_ascii_case("WITH")
        )
    }

    fn parse_operand(&mut self) -> DbResult<Expr> {
        match self.peek().cloned() {
            Some(Token::Int(n)) => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Int(n)))
            }
            Some(Token::Float(f)) => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Double(f)))
            }
            Some(Token::Str(s)) => {
                self.pos += 1;
                Ok(Expr::Literal(promote_literal(&s)))
            }
            Some(Token::LParen) => {
                if self.next_is_select() {
                    self.pos += 1;
                    let q = self.parse_query()?;
                    self.expect(&Token::RParen)?;
                    Ok(Expr::ScalarSubquery(Box::new(q)))
                } else {
                    self.pos += 1;
                    let e = self.parse_expr()?;
                    self.expect(&Token::RParen)?;
                    Ok(e)
                }
            }
            Some(Token::Ident(name)) => {
                // Keyword literals.
                if name.eq_ignore_ascii_case("TRUE") {
                    self.pos += 1;
                    return Ok(Expr::Literal(Value::Bool(true)));
                }
                if name.eq_ignore_ascii_case("FALSE") {
                    self.pos += 1;
                    return Ok(Expr::Literal(Value::Bool(false)));
                }
                if name.eq_ignore_ascii_case("NULL") {
                    self.pos += 1;
                    return Ok(Expr::Literal(Value::Null));
                }
                // TIME '…' / DATE '…' literals.
                if name.eq_ignore_ascii_case("TIME") {
                    if let Some(Token::Str(s)) = self.peek2() {
                        let t = Value::parse_time(s)
                            .ok_or_else(|| DbError::Parse(format!("bad TIME literal '{s}'")))?;
                        self.pos += 2;
                        return Ok(Expr::Literal(Value::Time(t)));
                    }
                }
                if name.eq_ignore_ascii_case("DATE") {
                    if let Some(Token::Str(s)) = self.peek2() {
                        let d = Value::parse_date(s)
                            .ok_or_else(|| DbError::Parse(format!("bad DATE literal '{s}'")))?;
                        self.pos += 2;
                        return Ok(Expr::Literal(Value::Date(d)));
                    }
                }
                // DOUBLE '…' literals: the renderer emits this spelling
                // only for non-finite doubles, which have no SQL value —
                // reject those with a defined error instead of misparsing
                // bare NaN/inf text as a column reference.
                if name.eq_ignore_ascii_case("DOUBLE") {
                    if let Some(Token::Str(s)) = self.peek2() {
                        let d: f64 = s.trim().parse().map_err(|_| {
                            DbError::Parse(format!("bad DOUBLE literal '{s}'"))
                        })?;
                        if !d.is_finite() {
                            return Err(DbError::Parse(format!(
                                "non-finite DOUBLE literal '{s}' has no SQL value"
                            )));
                        }
                        self.pos += 2;
                        return Ok(Expr::Literal(Value::Double(d)));
                    }
                }
                // UDF call: IDENT '(' args ')' for non-aggregate names.
                if self.peek2() == Some(&Token::LParen) && Self::agg_func(&name).is_none() {
                    self.pos += 2;
                    let mut args = Vec::new();
                    if self.peek() != Some(&Token::RParen) {
                        loop {
                            args.push(self.parse_operand()?);
                            if !self.eat_if(&Token::Comma) {
                                break;
                            }
                        }
                    }
                    self.expect(&Token::RParen)?;
                    return Ok(Expr::Udf { name, args });
                }
                let col = self.parse_column_ref()?;
                Ok(Expr::Column(col))
            }
            other => Err(DbError::Parse(format!("unexpected token {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_q2_shape() {
        let q = parse(
            "SELECT * FROM wifi_dataset AS w \
             WHERE w.owner IN (1, 2, 3) AND w.ts_time BETWEEN '09:00' AND '17:00'",
        )
        .unwrap();
        assert_eq!(q.from[0].alias, "w");
        let conj = q.predicate.unwrap();
        assert_eq!(conj.conjuncts().len(), 2);
    }

    #[test]
    fn parses_join_and_group_by() {
        let q = parse(
            "SELECT w.owner, COUNT(*) n FROM wifi_dataset w, user_group_membership ug \
             WHERE ug.user_group_id = 5 AND ug.user_id = w.owner GROUP BY w.owner",
        )
        .unwrap();
        assert_eq!(q.from.len(), 2);
        assert_eq!(q.group_by.len(), 1);
        assert!(q.has_aggregates());
    }

    #[test]
    fn parses_nested_parens_precedence() {
        let q = parse("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3").unwrap();
        // AND binds tighter: OR(a=1, AND(b=2, c=3)).
        match q.predicate.unwrap() {
            Expr::Or(parts) => {
                assert_eq!(parts.len(), 2);
                assert!(matches!(parts[1], Expr::And(_)));
            }
            other => panic!("expected OR, got {other:?}"),
        }
    }

    #[test]
    fn parses_parenthesized_or_inside_and() {
        let q = parse("SELECT * FROM t WHERE a = 1 AND (b = 2 OR c = 3)").unwrap();
        match q.predicate.unwrap() {
            Expr::And(parts) => {
                assert_eq!(parts.len(), 2);
                assert!(matches!(parts[1], Expr::Or(_)));
            }
            other => panic!("expected AND, got {other:?}"),
        }
    }

    #[test]
    fn parses_scalar_subquery() {
        let q = parse(
            "SELECT * FROM wifi_dataset w WHERE w.wifi_ap = \
             (SELECT w2.wifi_ap FROM wifi_dataset w2 WHERE w2.owner = 99 LIMIT 1)",
        )
        .unwrap();
        match q.predicate.unwrap() {
            Expr::Cmp { rhs, .. } => assert!(matches!(*rhs, Expr::ScalarSubquery(_))),
            other => panic!("expected comparison, got {other:?}"),
        }
    }

    #[test]
    fn parses_not_in_and_is_null() {
        let q = parse("SELECT * FROM t WHERE a NOT IN (1, 2) AND b IS NOT NULL").unwrap();
        let pred = q.predicate.unwrap();
        let conjs = pred.conjuncts();
        assert!(matches!(conjs[0], Expr::InList { negated: true, .. }));
        assert!(matches!(conjs[1], Expr::IsNull { negated: true, .. }));
    }

    #[test]
    fn parses_use_index_hint() {
        let q = parse("SELECT * FROM t USE INDEX () WHERE a = 1").unwrap();
        assert_eq!(q.from[0].hint, IndexHint::IgnoreAll);
    }

    #[test]
    fn parses_udf_equals_true() {
        let q = parse("SELECT * FROM t WHERE delta(3, 'Bob', 'Analytics', owner) = TRUE").unwrap();
        match q.predicate.unwrap() {
            Expr::Cmp { lhs, .. } => assert!(matches!(*lhs, Expr::Udf { .. })),
            other => panic!("expected cmp, got {other:?}"),
        }
    }

    #[test]
    fn parses_typed_literals() {
        let q = parse("SELECT * FROM t WHERE a = TIME '09:15' AND b = DATE '2020-01-01'").unwrap();
        let pred = q.predicate.unwrap();
        let conjs = pred.conjuncts();
        assert!(
            matches!(conjs[0], Expr::Cmp { ref rhs, .. } if matches!(**rhs, Expr::Literal(Value::Time(_))))
        );
    }

    #[test]
    fn parses_count_distinct_star() {
        let q = parse("SELECT COUNT(DISTINCT *) AS n FROM t").unwrap();
        assert!(matches!(
            q.select[0],
            SelectItem::Aggregate {
                func: AggFunc::CountDistinct,
                column: None,
                ..
            }
        ));
        assert!(parse("SELECT SUM(DISTINCT a) FROM t").is_err());
    }

    #[test]
    fn parses_double_literal_and_rejects_non_finite() {
        let q = parse("SELECT * FROM t WHERE a = DOUBLE '1.5'").unwrap();
        match q.predicate.unwrap() {
            Expr::Cmp { rhs, .. } => {
                assert_eq!(*rhs, Expr::Literal(Value::Double(1.5)))
            }
            other => panic!("expected cmp, got {other:?}"),
        }
        for bad in ["NaN", "inf", "-inf"] {
            let err = parse(&format!("SELECT * FROM t WHERE a = DOUBLE '{bad}'"))
                .unwrap_err();
            assert!(
                err.to_string().contains("non-finite"),
                "expected defined non-finite error, got {err}"
            );
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("SELECT * FROM t WHERE a = 1 extra garbage ,").is_err());
    }

    #[test]
    fn rejects_missing_from() {
        assert!(parse("SELECT *").is_err());
    }

    #[test]
    fn parses_limit() {
        let q = parse("SELECT * FROM t LIMIT 10").unwrap();
        assert_eq!(q.limit, Some(10));
    }

    #[test]
    fn parses_derived_table() {
        let q = parse("SELECT COUNT(*) FROM (SELECT * FROM t WHERE a = 1) AS sub").unwrap();
        assert!(matches!(q.from[0].source, TableSource::Derived(_)));
        assert_eq!(q.from[0].alias, "sub");
    }
}
