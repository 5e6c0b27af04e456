//! Post content generation: topics and sentiment-bearing text.
//!
//! The paper's future work plans "classifiers that are able to extract OSN
//! post topics and emotional states" (§9); our reproduction implements
//! those classifiers (in `sensocial-classify`), so the simulated platform
//! must generate content with real topical and emotional signal.

use sensocial_runtime::SimRng;

/// Topics the activity generators post about. Filter conditions like the
/// paper's "when the user posts about football" compare against these tags.
pub const TOPICS: [&str; 6] = ["football", "music", "food", "travel", "work", "weather"];

/// Coarse sentiment of a generated post.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sentiment {
    /// Positive emotional valence.
    Positive,
    /// Negative emotional valence.
    Negative,
    /// No strong valence.
    Neutral,
}

const POSITIVE_PHRASES: [&str; 5] = ["love", "amazing", "great time", "so happy", "wonderful"];

const NEGATIVE_PHRASES: [&str; 5] = ["hate", "awful", "terrible", "so sad", "disappointed"];

const TOPIC_FRAGMENTS: [(&str, &str); 6] = [
    ("football", "the match tonight"),
    ("music", "this new album"),
    ("food", "dinner at the bistro"),
    ("travel", "my trip to the coast"),
    ("work", "the deadline at work"),
    ("weather", "the weather today"),
];

/// Generates a post body about `topic` with the requested sentiment.
///
/// The text embeds one of a known set of sentiment phrases so that the
/// keyword sentiment classifier has ground truth to recover.
///
/// # Example
///
/// ```
/// use sensocial_osn::{generate_post, Sentiment};
/// use sensocial_runtime::SimRng;
///
/// let mut rng = SimRng::seed_from(1);
/// let text = generate_post(&mut rng, "football", Sentiment::Positive);
/// assert!(text.contains("match"));
/// ```
pub fn generate_post(rng: &mut SimRng, topic: &str, sentiment: Sentiment) -> String {
    let fragment = TOPIC_FRAGMENTS
        .iter()
        .find(|(t, _)| *t == topic)
        .map(|(_, f)| *f)
        .unwrap_or("things in general");
    match sentiment {
        Sentiment::Positive => {
            let phrase = rng.choose(&POSITIVE_PHRASES).expect("non-empty"); // lint:allow(expect) — const array is non-empty
            format!("I {phrase} {fragment}!")
        }
        Sentiment::Negative => {
            let phrase = rng.choose(&NEGATIVE_PHRASES).expect("non-empty"); // lint:allow(expect) — const array is non-empty
            format!("I {phrase} {fragment}.")
        }
        Sentiment::Neutral => format!("Thinking about {fragment}."),
    }
}

/// The positive phrases the generator embeds (exposed so sentiment
/// classifiers and tests can align with the generator's vocabulary).
pub fn positive_phrases() -> &'static [&'static str] {
    &POSITIVE_PHRASES
}

/// The negative phrases the generator embeds.
pub fn negative_phrases() -> &'static [&'static str] {
    &NEGATIVE_PHRASES
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positive_posts_contain_positive_phrases() {
        let mut rng = SimRng::seed_from(2);
        for _ in 0..20 {
            let text = generate_post(&mut rng, "music", Sentiment::Positive);
            assert!(
                positive_phrases().iter().any(|p| text.contains(p)),
                "{text}"
            );
            assert!(!negative_phrases().iter().any(|p| text.contains(p)));
        }
    }

    #[test]
    fn negative_posts_contain_negative_phrases() {
        let mut rng = SimRng::seed_from(3);
        let text = generate_post(&mut rng, "work", Sentiment::Negative);
        assert!(
            negative_phrases().iter().any(|p| text.contains(p)),
            "{text}"
        );
    }

    #[test]
    fn neutral_posts_carry_no_sentiment_phrases() {
        let mut rng = SimRng::seed_from(4);
        let text = generate_post(&mut rng, "food", Sentiment::Neutral);
        assert!(!positive_phrases().iter().any(|p| text.contains(p)));
        assert!(!negative_phrases().iter().any(|p| text.contains(p)));
    }

    #[test]
    fn unknown_topic_still_generates() {
        let mut rng = SimRng::seed_from(5);
        let text = generate_post(&mut rng, "quantum", Sentiment::Neutral);
        assert!(text.contains("things in general"));
    }

    #[test]
    fn topics_are_unique() {
        let mut t = TOPICS.to_vec();
        t.sort_unstable();
        t.dedup();
        assert_eq!(t.len(), TOPICS.len());
    }
}
