use std::error::Error;
use std::fmt;

use sbx_simmem::AllocError;

/// Errors surfaced by the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// A memory tier could not satisfy an allocation even after spilling.
    Alloc(AllocError),
    /// The pipeline or run configuration is invalid.
    Config(String),
    /// The fault-injection harness tore the worker down mid-run. All
    /// RC-pinned bundles and KPAs are released on unwind; recovery restores
    /// the latest complete snapshot and resumes from its replay offset.
    Crashed(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Alloc(e) => write!(f, "allocation failed: {e}"),
            EngineError::Config(msg) => write!(f, "invalid configuration: {msg}"),
            EngineError::Crashed(site) => write!(f, "worker crashed (injected): {site}"),
        }
    }
}

impl Error for EngineError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            EngineError::Alloc(e) => Some(e),
            EngineError::Config(_) | EngineError::Crashed(_) => None,
        }
    }
}

impl From<AllocError> for EngineError {
    fn from(e: AllocError) -> Self {
        EngineError::Alloc(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbx_simmem::MemKind;

    #[test]
    fn alloc_errors_convert_and_chain() {
        let a = AllocError {
            kind: MemKind::Hbm,
            requested_bytes: 1,
            available_bytes: 0,
        };
        let e: EngineError = a.clone().into();
        assert_eq!(e, EngineError::Alloc(a));
        assert!(e.source().is_some());
        assert!(e.to_string().contains("allocation failed"));
    }

    #[test]
    fn config_error_displays_message() {
        let e = EngineError::Config("no operators".into());
        assert!(e.to_string().contains("no operators"));
        assert!(e.source().is_none());
    }
}
