//! The standard analyses. Each submodule exports a unit-struct
//! implementing [`crate::pass::Pass`] plus the underlying analysis
//! function for callers that want the raw results (he-diff's admission
//! guard reads [`levels::infer`]; the packed path generates keys for
//! [`rotations::required_elements`]; the interpreter frees values with
//! [`liveness::analyze`]).

pub mod cse;
pub mod levels;
pub mod liveness;
pub mod placement;
pub mod rotations;
