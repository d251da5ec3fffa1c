//! Correctness checks on every answer the server gives.

use crate::client::Reply;
use crate::inputs::{Ask, Inputs, M};
use ocular_serve::protocol::Echo;
use ocular_serve::WireReply;
use std::ops::RangeInclusive;

/// Checks one reply to `ask`: HTTP 200, a body that decodes with
/// [`WireReply::decode`] as a success, `M` distinct items of which none
/// is owned by the user (warm) or in the basket (cold), probabilities
/// finite and descending, and a `model_generation` inside `generations`.
pub fn check_reply(
    inputs: &Inputs,
    ask: Ask,
    reply: &Reply,
    generations: RangeInclusive<u64>,
) -> Result<(), String> {
    if reply.status != 200 {
        return Err(format!("HTTP {}", reply.status));
    }
    let text = std::str::from_utf8(&reply.body).map_err(|_| "body is not UTF-8")?;
    let resp = match WireReply::decode(text.trim_end()) {
        Ok(WireReply::Ok(r)) => r,
        Ok(WireReply::Err(e)) => return Err(format!("error body with HTTP 200: {e:?}")),
        Err(e) => return Err(format!("undecodable body: {e}")),
    };
    let ids = resp.item_ids.ok_or("reply carries no item_ids")?;
    if ids.len() != M || resp.items.len() != M || resp.probs.len() != M {
        return Err(format!("{} items, {M} asked", ids.len()));
    }
    let mut sorted = ids.clone();
    sorted.sort_unstable();
    if sorted.windows(2).any(|w| w[0] == w[1]) {
        return Err("duplicate items".into());
    }
    let excluded: &[u64] = match ask {
        Ask::Warm(i) => {
            let user = inputs.warm_users[i];
            if resp.echo != Echo::UserId(user) {
                return Err(format!("echo {:?} for user {user}", resp.echo));
            }
            &inputs.owned[&user]
        }
        Ask::Cold(i) => {
            if resp.echo != Echo::Cold {
                return Err(format!("echo {:?} for a cold basket", resp.echo));
            }
            &inputs.cold[i].basket
        }
    };
    if let Some(id) = ids.iter().find(|id| excluded.binary_search(id).is_ok()) {
        return Err(format!("served item {id} the user already has"));
    }
    if resp
        .probs
        .iter()
        .any(|p| !p.is_finite() || !(0.0..=1.0).contains(p))
        || resp.probs.windows(2).any(|w| w[0] < w[1])
    {
        return Err("probabilities not finite, in [0, 1] and descending".into());
    }
    match resp.model_generation {
        Some(g) if generations.contains(&g) => Ok(()),
        g => Err(format!("model_generation {g:?}, expected {generations:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn inputs() -> Inputs {
        Inputs {
            base: vec![],
            delta: vec![],
            test: vec![],
            cold: vec![crate::inputs::ColdUser {
                basket: vec![900_001],
                remaining: vec![900_002],
            }],
            warm_users: vec![7],
            owned: HashMap::from([(7, vec![900_003])]),
        }
    }

    fn body(echo: &str, ids: &[u64], generation: u64) -> Reply {
        let ids: Vec<String> = ids.iter().map(u64::to_string).collect();
        let items: Vec<String> = (0..ids.len()).map(|i| i.to_string()).collect();
        let probs: Vec<String> = (0..ids.len()).map(|i| format!("0.{}", 9 - i)).collect();
        Reply {
            status: 200,
            body: format!(
                "{{{echo},\"items\":[{}],\"item_ids\":[{}],\"probs\":[{}],\"scored\":50,\
                 \"fallback\":false,\"model_generation\":{generation},\"kind\":\"ocular\"}}\n",
                items.join(","),
                ids.join(","),
                probs.join(",")
            )
            .into_bytes(),
        }
    }

    #[test]
    fn accepts_a_well_formed_reply() {
        let ids: Vec<u64> = (910_000..910_010).collect();
        let ok = body("\"user_id\":7", &ids, 2);
        assert_eq!(check_reply(&inputs(), Ask::Warm(0), &ok, 1..=2), Ok(()));
        let cold = body("\"cold\":true", &ids, 1);
        assert_eq!(check_reply(&inputs(), Ask::Cold(0), &cold, 1..=1), Ok(()));
    }

    #[test]
    fn rejects_owned_items_short_lists_and_stale_generations() {
        let mut ids: Vec<u64> = (910_000..910_010).collect();
        let stale = body("\"user_id\":7", &ids, 1);
        assert!(check_reply(&inputs(), Ask::Warm(0), &stale, 2..=2).is_err());
        let short = body("\"user_id\":7", &ids[..9], 2);
        assert!(check_reply(&inputs(), Ask::Warm(0), &short, 2..=2).is_err());
        ids[3] = 900_003;
        let owned = body("\"user_id\":7", &ids, 2);
        assert!(check_reply(&inputs(), Ask::Warm(0), &owned, 2..=2).is_err());
        ids[3] = 900_001;
        let in_basket = body("\"cold\":true", &ids, 2);
        assert!(check_reply(&inputs(), Ask::Cold(0), &in_basket, 2..=2).is_err());
        let shed = Reply {
            status: 429,
            body: b"{}".to_vec(),
        };
        assert!(check_reply(&inputs(), Ask::Warm(0), &shed, 2..=2).is_err());
    }
}
