//! # xdb-sql
//!
//! SQL frontend and relational IR for the XDB federation:
//!
//! - [`value`]: runtime values, data types, and calendar-date arithmetic;
//! - [`lexer`] / [`parser`]: a hand-written SQL parser for the analytical
//!   dialect shared by every system in the federation;
//! - [`ast`]: the statement/expression AST, designed to round-trip through
//!   [`display`] so that delegation-by-query-rewriting is lossless;
//! - [`algebra`]: the logical relational algebra that local engines execute
//!   and the XDB cross-database optimizer annotates, with lowering back to
//!   SQL ([`algebra::plan_to_select`]).

pub mod algebra;
pub mod ast;
pub mod bind;
pub mod column;
pub mod display;
pub mod hash;
pub mod keywords;
pub mod lexer;
pub mod optimize;
pub mod parser;
pub mod stats;
pub mod structural;
pub mod value;

pub use ast::{Expr, SelectStmt, Statement};
pub use column::{Bitmap, Column, ColumnBuilder, SchemaIndex, TypedCol};
pub use display::Dialect;
pub use parser::{parse_expr, parse_script, parse_select, parse_statement, ParseError};
pub use value::{DataType, Value};
