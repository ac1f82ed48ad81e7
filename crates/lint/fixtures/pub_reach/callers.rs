//! Fixture: the rest of the workspace, as `pub-reach` sees it.

pub use super::items::reexported_only;
use super::items::IMPORTED;

// mentioned_in_prose is described here but never called.
fn workspace() -> &'static str {
    called_elsewhere();
    let _ = area;
    let _ = Holder;
    "mentioned_in_prose"
}

#[cfg(test)]
mod tests {
    #[test]
    fn reaches() {
        called_from_tests();
    }
}
