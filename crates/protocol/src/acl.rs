//! User authentication and group-based access control.
//!
//! Section 4.1: "To execute a keyword query, the user first authenticates
//! herself to an index server and supplies the query terms ... The index
//! server determines the user's access rights".  The reproduction models this
//! with HMAC-based bearer tokens derived from a server secret and a per-user
//! group membership table.
//!
//! Everything a request needs is kept current by the calls that change it:
//! a user's expected token is computed when her entry is written and her
//! membership is stored ascending and deduplicated behind an `Arc`, so
//! [`AccessControl::authenticate`] is a map lookup, a constant-time compare
//! and a reference-count bump — no HMAC, no allocation, no sort.

use std::collections::HashMap;
use std::sync::Arc;

use zerber_corpus::GroupId;
use zerber_crypto::hmac::constant_time_eq;
use zerber_crypto::HmacSha256;

use crate::error::ProtocolError;

/// An authentication token presented by a client.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AuthToken(pub [u8; 32]);

/// What an unknown user's token is compared against, so a wrong name and a
/// wrong token cost the same compare.  No legitimate token is matched by
/// it: the comparison's result is ignored for an unknown user.
const NO_SUCH_USER: AuthToken = AuthToken([0u8; 32]);

/// One registered user: the token she must present and the groups it
/// unlocks.
#[derive(Clone)]
struct UserEntry {
    token: AuthToken,
    /// Strictly ascending (sorted, deduplicated) — the order the storage
    /// engine's group filter wants, established here once per membership
    /// change instead of once per request.
    groups: Arc<[GroupId]>,
}

/// Server-side user directory: who exists and which groups they belong to.
#[derive(Clone, Default)]
pub struct AccessControl {
    server_secret: Vec<u8>,
    users: HashMap<String, UserEntry>,
}

impl std::fmt::Debug for AccessControl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print the server secret or any user's bearer token.
        write!(f, "AccessControl(users={}, ..)", self.users.len())
    }
}

impl AccessControl {
    /// Creates a directory with the given server secret.
    pub fn new(server_secret: &[u8]) -> Self {
        AccessControl {
            server_secret: server_secret.to_vec(),
            users: HashMap::new(),
        }
    }

    /// Registers a user with her groups (replaces previous memberships).
    pub fn register_user(&mut self, user: &str, groups: &[GroupId]) {
        let mut groups = groups.to_vec();
        groups.sort_unstable();
        groups.dedup();
        let entry = UserEntry {
            token: self.issue_token(user),
            groups: groups.into(),
        };
        self.users.insert(user.to_string(), entry);
    }

    /// The token a legitimate user obtains out of band (e.g. from the
    /// enterprise identity provider).
    pub fn issue_token(&self, user: &str) -> AuthToken {
        AuthToken(HmacSha256::mac(&self.server_secret, user.as_bytes()))
    }

    /// Verifies the token and returns the user's groups, ascending and
    /// deduplicated.  The compare is constant-time, and an unknown user
    /// pays the same compare as a known one with a wrong token.
    pub fn authenticate(
        &self,
        user: &str,
        token: &AuthToken,
    ) -> Result<Arc<[GroupId]>, ProtocolError> {
        let entry = self.users.get(user);
        let expected = entry.map_or(&NO_SUCH_USER, |e| &e.token);
        let presented = constant_time_eq(&expected.0, &token.0);
        match entry {
            Some(entry) if presented => Ok(Arc::clone(&entry.groups)),
            _ => Err(ProtocolError::AuthenticationFailed(user.to_string())),
        }
    }

    /// Checks that a user may access a specific group.
    pub fn check_member(
        &self,
        user: &str,
        token: &AuthToken,
        group: GroupId,
    ) -> Result<(), ProtocolError> {
        let groups = self.authenticate(user, token)?;
        if groups.binary_search(&group).is_ok() {
            Ok(())
        } else {
            Err(ProtocolError::AccessDenied {
                user: user.to_string(),
                group: group.0,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acl() -> AccessControl {
        let mut acl = AccessControl::new(b"server-secret");
        acl.register_user("john", &[GroupId(0), GroupId(2)]);
        acl.register_user("alice", &[GroupId(1)]);
        acl
    }

    #[test]
    fn valid_tokens_authenticate_and_list_groups() {
        let acl = acl();
        let token = acl.issue_token("john");
        let groups = acl.authenticate("john", &token).unwrap();
        assert_eq!(*groups, [GroupId(0), GroupId(2)]);
        assert_eq!(acl.users.len(), 2);
    }

    #[test]
    fn forged_or_foreign_tokens_are_rejected() {
        let acl = acl();
        let alice_token = acl.issue_token("alice");
        assert!(matches!(
            acl.authenticate("john", &alice_token),
            Err(ProtocolError::AuthenticationFailed(_))
        ));
        let forged = AuthToken([0u8; 32]);
        assert!(acl.authenticate("alice", &forged).is_err());
    }

    #[test]
    fn unknown_users_are_rejected_even_with_a_consistent_token() {
        let acl = acl();
        let token = acl.issue_token("mallory");
        assert!(matches!(
            acl.authenticate("mallory", &token),
            Err(ProtocolError::AuthenticationFailed(_))
        ));
    }

    #[test]
    fn group_membership_checks_enforce_access() {
        let acl = acl();
        let token = acl.issue_token("john");
        assert!(acl.check_member("john", &token, GroupId(0)).is_ok());
        assert!(matches!(
            acl.check_member("john", &token, GroupId(1)),
            Err(ProtocolError::AccessDenied { group: 1, .. })
        ));
    }

    #[test]
    fn membership_changes_are_seen_by_the_very_next_authenticate() {
        let mut acl = acl();
        let token = acl.issue_token("alice");
        let groups = |acl: &AccessControl| acl.authenticate("alice", &token).unwrap().to_vec();
        assert_eq!(groups(&acl), [GroupId(1)]);
        // A re-registration replaces the membership, whatever order and
        // multiplicity the caller lists it in; the token stays valid.
        acl.register_user(
            "alice",
            &[
                GroupId(7),
                GroupId(u32::MAX),
                GroupId(2),
                GroupId(7),
                GroupId(2),
            ],
        );
        assert_eq!(groups(&acl), [GroupId(2), GroupId(7), GroupId(u32::MAX)]);
        acl.register_user("alice", &[]);
        assert!(groups(&acl).is_empty());
        // Registering a name the directory has not seen admits it.
        let carol = acl.issue_token("carol");
        assert!(acl.authenticate("carol", &carol).is_err());
        acl.register_user("carol", &[GroupId(4)]);
        assert_eq!(*acl.authenticate("carol", &carol).unwrap(), [GroupId(4)]);
        assert_eq!(acl.users.len(), 3);
    }

    #[test]
    fn the_dummy_token_authenticates_nobody() {
        let acl = acl();
        // What an unknown user is compared against must not let her in...
        assert!(acl.authenticate("mallory", &NO_SUCH_USER).is_err());
        // ...and is not a known user's token either.
        assert!(acl.authenticate("john", &NO_SUCH_USER).is_err());
    }

    #[test]
    fn debug_does_not_leak_key_material() {
        // The derived `Debug` printed the secret byte by byte ("65, 65, ..")
        // and would now print every user's bearer token next to it.
        let mut acl = AccessControl::new(&[0x41; 4]);
        acl.register_user("john", &[GroupId(0)]);
        let s = format!("{acl:?}");
        assert!(s.contains("AccessControl"));
        assert!(!s.contains("65"), "{s}");
        let token = acl.issue_token("john");
        assert!(!s.contains(&format!("{:?}", token.0)), "{s}");
    }

    #[test]
    fn different_server_secrets_produce_different_tokens() {
        let a = AccessControl::new(b"secret-a");
        let b = AccessControl::new(b"secret-b");
        assert_ne!(a.issue_token("john"), b.issue_token("john"));
    }
}
