//! Test support shared by several suites: each suite uses part of it.

#![allow(dead_code)]

pub mod golden;
pub mod surface;
