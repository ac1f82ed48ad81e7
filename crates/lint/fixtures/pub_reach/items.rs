//! Fixture: `pub-reach` declarations. The other files of this corpus
//! name some of these items and leave others unnamed.

// Findings: no other file names these in code.

/// Named only here, by its own caller below.
pub fn only_here() -> u32 {
    7
}

fn local_caller() -> u32 {
    only_here()
}

/// Named elsewhere only by a `pub use`, which forwards without calling.
pub fn reexported_only() {}

/// Named elsewhere only in a comment and a string.
pub fn mentioned_in_prose() {}

// Not findings.

/// Called from another file.
pub fn called_elsewhere() {}

/// Named only inside another file's `#[cfg(test)]` module.
pub fn called_from_tests() {}

/// Named elsewhere only by a private `use`.
pub const IMPORTED: u32 = 3;

/// Named only by the `pub fn` signature below.
pub struct Shape {
    sides: u32,
}

pub fn area(shape: &Shape) -> u32 {
    shape.sides
}

/// Named only by the `pub` field below.
pub struct Unit;

pub struct Holder {
    pub unit: Unit,
}

/// Restricted visibility is rustc's to police.
pub(crate) fn crate_only() {}

#[cfg(test)]
mod tests {
    /// Test-only code is exempt.
    pub fn test_helper() {}
}
