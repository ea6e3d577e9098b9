//! Minimal `--key value` argument parsing.

use std::collections::HashMap;

/// Parsed `--key value` pairs and bare `--flag` switches.
#[derive(Debug, Clone, Default)]
pub struct ArgMap {
    values: HashMap<String, String>,
}

impl ArgMap {
    /// Parses alternating `--key value` tokens. A `--key` followed by
    /// another option (or by nothing) is a bare flag and parses as the
    /// value `true`, so switches like `--json` need no operand.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Usage`] on stray tokens or duplicate options.
    pub fn parse(tokens: &[String]) -> Result<Self, CliError> {
        let mut values = HashMap::new();
        let mut it = tokens.iter().peekable();
        while let Some(tok) = it.next() {
            let key = tok
                .strip_prefix("--")
                .ok_or_else(|| CliError::Usage(format!("expected an option, got `{tok}`")))?;
            let value = match it.peek() {
                Some(next) if !next.starts_with("--") => it.next().unwrap().clone(),
                _ => "true".to_string(),
            };
            if values.insert(key.to_string(), value).is_some() {
                return Err(CliError::Usage(format!("option --{key} given twice")));
            }
        }
        Ok(ArgMap { values })
    }

    /// `true` iff `--key` was given, bare or as `--key true`.
    pub fn flag(&self, key: &str) -> bool {
        self.optional(key) == Some("true")
    }

    /// A required string option.
    pub fn required(&self, key: &str) -> Result<&str, CliError> {
        self.values
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| CliError::Usage(format!("missing required option --{key}")))
    }

    /// An optional string option.
    pub fn optional(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// A required parsed option.
    pub fn required_parsed<T: std::str::FromStr>(&self, key: &str) -> Result<T, CliError> {
        self.required(key)?
            .parse()
            .map_err(|_| CliError::Usage(format!("invalid value for --{key}")))
    }

    /// An optional parsed option with a default.
    pub fn parsed_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, CliError> {
        match self.optional(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::Usage(format!("invalid value for --{key}"))),
        }
    }

    /// The proximity parameter `--eps`, or `default` when absent.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Usage`] unless the value is finite and in
    /// (0, 1].
    pub fn eps_or(&self, default: f64) -> Result<f64, CliError> {
        self.optional("eps")
            .map_or(Ok(default), |raw| parse_eps("--eps", raw))
    }

    /// The average-degree hint `--d`, or `default` when absent.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Usage`] unless the value is finite and
    /// positive.
    pub fn degree_or(&self, default: f64) -> Result<f64, CliError> {
        self.optional("d")
            .map_or(Ok(default), |raw| parse_degree("--d", raw))
    }
}

/// Parses a proximity parameter ε, which must be finite and in (0, 1]:
/// the testers' sample sizes grow like 1/ε, so ε = 0 never terminates
/// and NaN slips past every comparison. `what` names the source in the
/// error (`--eps`, or a coordinator's Welcome params).
///
/// # Errors
///
/// Returns [`CliError::Usage`] on anything else.
pub(crate) fn parse_eps(what: &str, raw: &str) -> Result<f64, CliError> {
    match raw.parse::<f64>() {
        Ok(eps) if eps.is_finite() && eps > 0.0 && eps <= 1.0 => Ok(eps),
        _ => Err(CliError::Usage(format!(
            "{what} must be a number in (0, 1], got `{raw}`"
        ))),
    }
}

/// Parses an average-degree hint `d`, which must be finite and positive
/// (a NaN hint would otherwise pass the testers' `d <= 0` guards).
/// `what` names the source in the error.
///
/// # Errors
///
/// Returns [`CliError::Usage`] on anything else.
pub(crate) fn parse_degree(what: &str, raw: &str) -> Result<f64, CliError> {
    match raw.parse::<f64>() {
        Ok(d) if d.is_finite() && d > 0.0 => Ok(d),
        _ => Err(CliError::Usage(format!(
            "{what} must be a finite positive number, got `{raw}`"
        ))),
    }
}

/// CLI failure modes.
#[derive(Debug)]
#[non_exhaustive]
pub enum CliError {
    /// Bad arguments; print usage.
    Usage(String),
    /// Filesystem failure.
    Io(std::io::Error),
    /// Malformed graph file.
    Read(triad_graph::io::ReadError),
    /// Generator rejected the parameters.
    Graph(triad_graph::GraphError),
    /// A binary CSR file (`--graph-file`) failed to open or validate.
    Store(triad_graph::store::StoreError),
    /// A protocol rejected the input.
    Protocol(triad_protocols::ProtocolError),
    /// The networked coordinator (`serve`/`connect`) failed.
    Net(triad_comm::NetError),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "{m}"),
            CliError::Io(e) => write!(f, "{e}"),
            CliError::Read(e) => write!(f, "{e}"),
            CliError::Graph(e) => write!(f, "{e}"),
            CliError::Store(e) => write!(f, "{e}"),
            CliError::Protocol(e) => write!(f, "{e}"),
            CliError::Net(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

impl From<triad_graph::io::ReadError> for CliError {
    fn from(e: triad_graph::io::ReadError) -> Self {
        CliError::Read(e)
    }
}

impl From<triad_graph::GraphError> for CliError {
    fn from(e: triad_graph::GraphError) -> Self {
        CliError::Graph(e)
    }
}

impl From<triad_graph::store::StoreError> for CliError {
    fn from(e: triad_graph::store::StoreError) -> Self {
        CliError::Store(e)
    }
}

impl From<triad_protocols::ProtocolError> for CliError {
    fn from(e: triad_protocols::ProtocolError) -> Self {
        CliError::Protocol(e)
    }
}

impl From<triad_comm::NetError> for CliError {
    fn from(e: triad_comm::NetError) -> Self {
        CliError::Net(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_pairs() {
        let m = ArgMap::parse(&argv("--n 100 --out file.el")).unwrap();
        assert_eq!(m.required("n").unwrap(), "100");
        assert_eq!(m.required_parsed::<usize>("n").unwrap(), 100);
        assert_eq!(m.optional("missing"), None);
        assert_eq!(m.parsed_or("d", 4.0).unwrap(), 4.0);
        assert_eq!(m.eps_or(0.2).unwrap(), 0.2);
        assert_eq!(m.degree_or(8.0).unwrap(), 8.0);
        let m = ArgMap::parse(&argv("--eps 1 --d 0.5")).unwrap();
        assert_eq!(m.eps_or(0.2).unwrap(), 1.0);
        assert_eq!(m.degree_or(8.0).unwrap(), 0.5);
    }

    #[test]
    fn rejects_malformed() {
        assert!(ArgMap::parse(&argv("stray")).is_err());
        assert!(ArgMap::parse(&argv("--k 1 --k 2")).is_err());
        let m = ArgMap::parse(&argv("--n xyz")).unwrap();
        assert!(m.required_parsed::<usize>("n").is_err());
        assert!(m.required("missing").is_err());
        for bad in ["0", "-0.1", "1.5", "NaN", "inf", "x"] {
            let m = ArgMap::parse(&argv(&format!("--eps {bad}"))).unwrap();
            assert!(
                matches!(m.eps_or(0.2), Err(CliError::Usage(_))),
                "--eps {bad}"
            );
        }
        for bad in ["0", "-2", "NaN", "inf", "-inf", "x"] {
            let m = ArgMap::parse(&argv(&format!("--d {bad}"))).unwrap();
            assert!(
                matches!(m.degree_or(8.0), Err(CliError::Usage(_))),
                "--d {bad}"
            );
        }
    }

    #[test]
    fn bare_flags_parse_as_true() {
        let m = ArgMap::parse(&argv("--json --n 10")).unwrap();
        assert!(m.flag("json"));
        assert_eq!(m.required_parsed::<usize>("n").unwrap(), 10);
        let m = ArgMap::parse(&argv("--n 10 --json")).unwrap();
        assert!(m.flag("json"));
        assert!(!m.flag("csv"));
        let m = ArgMap::parse(&argv("--json true")).unwrap();
        assert!(m.flag("json"));
    }
}
