//! Campaign scenarios: what each board in the fleet is subjected to.

use rop::attack::AttackKind;

/// One attack (or control) scenario a campaign schedules against boards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scenario {
    /// No attack: the baseline that calibrates heartbeat and link numbers.
    #[default]
    Benign,
    /// The paper's basic ROP (§IV-C): write memory, then crash.
    V1Crash,
    /// The stealthy single-packet attack (§IV-D): clean return.
    V2Stealthy,
    /// The trampoline attack (§IV-E): staged multi-packet chain.
    V3Trampoline,
}

impl Scenario {
    /// All scenarios, in report order.
    pub fn all() -> [Scenario; 4] {
        [
            Scenario::Benign,
            Scenario::V1Crash,
            Scenario::V2Stealthy,
            Scenario::V3Trampoline,
        ]
    }

    /// Stable name used in reports and on the CLI.
    pub fn name(&self) -> &'static str {
        match self {
            Scenario::Benign => "benign",
            Scenario::V1Crash => AttackKind::V1.name(),
            Scenario::V2Stealthy => AttackKind::V2.name(),
            Scenario::V3Trampoline => AttackKind::V3 {
                staging: AttackKind::DEFAULT_STAGING,
            }
            .name(),
        }
    }

    /// The attack this scenario injects, if any.
    pub fn attack_kind(&self) -> Option<AttackKind> {
        match self {
            Scenario::Benign => None,
            Scenario::V1Crash => Some(AttackKind::V1),
            Scenario::V2Stealthy => Some(AttackKind::V2),
            Scenario::V3Trampoline => Some(AttackKind::V3 {
                staging: AttackKind::DEFAULT_STAGING,
            }),
        }
    }
}

impl std::str::FromStr for Scenario {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "benign" | "baseline" => Ok(Scenario::Benign),
            _ => match s.parse::<AttackKind>() {
                Ok(AttackKind::V1) => Ok(Scenario::V1Crash),
                Ok(AttackKind::V2) => Ok(Scenario::V2Stealthy),
                Ok(AttackKind::V3 { .. }) => Ok(Scenario::V3Trampoline),
                Err(_) => Err(format!(
                    "unknown scenario `{s}` (benign, v1|crash, v2|stealthy, v3|trampoline)"
                )),
            },
        }
    }
}

/// Parse a comma-separated scenario list (`stealthy,benign`); `all` means
/// every scenario.
pub fn parse_scenarios(s: &str) -> Result<Vec<Scenario>, String> {
    if s == "all" {
        return Ok(Scenario::all().to_vec());
    }
    s.split(',')
        .map(str::trim)
        .filter(|p| !p.is_empty())
        .map(str::parse)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_names_and_aliases() {
        assert_eq!("benign".parse::<Scenario>().unwrap(), Scenario::Benign);
        assert_eq!("crash".parse::<Scenario>().unwrap(), Scenario::V1Crash);
        assert_eq!(
            "stealthy".parse::<Scenario>().unwrap(),
            Scenario::V2Stealthy
        );
        assert_eq!(
            "v3-trampoline".parse::<Scenario>().unwrap(),
            Scenario::V3Trampoline
        );
        assert!("frob".parse::<Scenario>().is_err());
        assert_eq!(parse_scenarios("all").unwrap().len(), 4);
        assert_eq!(
            parse_scenarios("stealthy, benign").unwrap(),
            vec![Scenario::V2Stealthy, Scenario::Benign]
        );
        for s in Scenario::all() {
            assert_eq!(
                s.name().parse::<Scenario>().unwrap(),
                s,
                "{s:?} round-trips"
            );
        }
    }
}
