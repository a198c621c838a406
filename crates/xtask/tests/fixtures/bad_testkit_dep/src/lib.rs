//! Fixture crate whose manifest ships `testkit`; never built.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
