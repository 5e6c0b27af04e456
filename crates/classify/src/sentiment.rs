//! OSN text mining: sentiment and topic extraction.
//!
//! The paper's future work: "develop classifiers that are able to extract
//! OSN post topics and emotional states of the individuals, and link them
//! to the users' physical context" (§9). These keyword classifiers close
//! that loop against the content the simulated platform generates.

/// Emotional valence of a piece of OSN text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TextSentiment {
    /// Positive valence.
    Positive,
    /// Negative valence.
    Negative,
    /// No strong valence detected.
    Neutral,
}

const POSITIVE_KEYWORDS: [&str; 8] = [
    "love",
    "amazing",
    "great",
    "happy",
    "wonderful",
    "excited",
    "fantastic",
    "best",
];

const NEGATIVE_KEYWORDS: [&str; 8] = [
    "hate",
    "awful",
    "terrible",
    "sad",
    "disappointed",
    "angry",
    "worst",
    "annoyed",
];

/// A keyword-vote sentiment classifier for OSN post text.
///
/// # Example
///
/// ```
/// use sensocial_classify::{SentimentClassifier, TextSentiment};
///
/// let c = SentimentClassifier::default();
/// assert_eq!(c.classify("I love this album!"), TextSentiment::Positive);
/// assert_eq!(c.classify("so disappointed by the match"), TextSentiment::Negative);
/// assert_eq!(c.classify("thinking about dinner"), TextSentiment::Neutral);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SentimentClassifier {
    _private: (),
}

impl SentimentClassifier {
    /// Creates the classifier.
    pub fn new() -> Self {
        SentimentClassifier::default()
    }

    /// Classifies `text` by keyword votes; ties (including zero votes) are
    /// neutral.
    pub fn classify(&self, text: &str) -> TextSentiment {
        let lower = text.to_lowercase();
        let pos = POSITIVE_KEYWORDS
            .iter()
            .filter(|k| lower.contains(*k))
            .count();
        let neg = NEGATIVE_KEYWORDS
            .iter()
            .filter(|k| lower.contains(*k))
            .count();
        match pos.cmp(&neg) {
            std::cmp::Ordering::Greater => TextSentiment::Positive,
            std::cmp::Ordering::Less => TextSentiment::Negative,
            std::cmp::Ordering::Equal => TextSentiment::Neutral,
        }
    }
}

const TOPIC_KEYWORDS: [(&str, &[&str]); 6] = [
    ("football", &["match", "goal", "football", "league"]),
    ("music", &["album", "song", "music", "concert", "band"]),
    ("food", &["dinner", "bistro", "food", "recipe", "lunch"]),
    ("travel", &["trip", "coast", "travel", "flight", "holiday"]),
    ("work", &["deadline", "work", "meeting", "office"]),
    ("weather", &["weather", "rain", "sunny", "storm"]),
];

/// Extracts the dominant topic of `text` by keyword votes, or `None` when
/// no topic keyword appears.
///
/// # Example
///
/// ```
/// use sensocial_classify::extract_topic;
///
/// assert_eq!(extract_topic("what a goal in the match!"), Some("football"));
/// assert_eq!(extract_topic("untagged musings"), None);
/// ```
pub fn extract_topic(text: &str) -> Option<&'static str> {
    let lower = text.to_lowercase();
    TOPIC_KEYWORDS
        .iter()
        .map(|(topic, keywords)| {
            let votes = keywords.iter().filter(|k| lower.contains(*k)).count();
            (*topic, votes)
        })
        .filter(|(_, votes)| *votes > 0)
        .max_by_key(|(_, votes)| *votes)
        .map(|(topic, _)| topic)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sentiment_votes() {
        let c = SentimentClassifier::new();
        assert_eq!(c.classify("AMAZING and wonderful"), TextSentiment::Positive);
        assert_eq!(
            c.classify("terrible, awful, but great"),
            TextSentiment::Negative
        );
        assert_eq!(c.classify("love it, hate it"), TextSentiment::Neutral);
        assert_eq!(c.classify(""), TextSentiment::Neutral);
    }

    #[test]
    fn sentiment_is_case_insensitive() {
        let c = SentimentClassifier::new();
        assert_eq!(c.classify("I Love This"), TextSentiment::Positive);
    }

    #[test]
    fn topic_extraction_votes() {
        assert_eq!(extract_topic("the match and the goal"), Some("football"));
        assert_eq!(extract_topic("new album from the band"), Some("music"));
        assert_eq!(
            extract_topic("dinner then a concert and a song"),
            Some("music")
        );
        assert_eq!(extract_topic("nothing relevant"), None);
    }

    #[test]
    fn classifies_generated_platform_content() {
        // Close the loop against the OSN content generator's phrasing.
        let c = SentimentClassifier::new();
        assert_eq!(
            c.classify("I so happy the match tonight!"),
            TextSentiment::Positive
        );
        assert_eq!(
            c.classify("I so sad the weather today."),
            TextSentiment::Negative
        );
        assert_eq!(
            extract_topic("Thinking about the match tonight."),
            Some("football")
        );
        assert_eq!(
            extract_topic("Thinking about dinner at the bistro."),
            Some("food")
        );
    }
}
