//! The Web substrate shared by both ConWeb variants: a small
//! context-adaptive page server and an auto-refreshing browser, exchanging
//! request/response messages over the simulated network.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use sensocial_net::{EndpointId, Network};
use sensocial_runtime::{json, json::Value};
use sensocial_runtime::{Scheduler, SimDuration, Timer, TimerHandle};
use sensocial_storage::{Collection, Query};
use sensocial_types::UserId;

/// Rendering contrast — the paper's example adaptation ("displaying higher
/// contrast colors when … a user is outside").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Contrast {
    /// Normal indoor rendering.
    Normal,
    /// High-contrast rendering for outdoor/moving users.
    High,
}

/// A page rendered for one user at one moment.
#[derive(Debug, Clone, PartialEq)]
pub struct RenderedPage {
    /// Page title.
    pub title: String,
    /// Adapted body text.
    pub body: String,
    /// The chosen contrast.
    pub contrast: Contrast,
    /// A social-context suggestion, when the user's OSN activity implies
    /// one (the paper's birthday-gift example; ours keys off post topics).
    pub suggestion: Option<String>,
}

/// The per-user context row the server adapts against. Which variant
/// *fills* this row is exactly what Table 5 compares.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UserWebContext {
    /// Latest classified activity.
    pub activity: Option<String>,
    /// Latest classified audio environment.
    pub audio: Option<String>,
    /// Latest classified place.
    pub place: Option<String>,
    /// Topic of the user's latest OSN post.
    pub last_topic: Option<String>,
}

/// The context-adaptive Web server.
///
/// Hosts named pages; a request for `page?user=<id>` renders the template
/// against the user's latest context from the `conweb_context` collection.
pub struct WebServer {
    endpoint: EndpointId,
    net: Network,
    context: Collection,
    pages: Rc<RefCell<HashMap<String, String>>>,
    served: Rc<RefCell<u64>>,
}

impl std::fmt::Debug for WebServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WebServer")
            .field("endpoint", &self.endpoint)
            .field("served", &*self.served.borrow_mut())
            .finish_non_exhaustive()
    }
}

impl WebServer {
    /// Starts the server at `endpoint`, rendering against `context`
    /// (a collection of `{user, activity?, audio?, place?, last_topic?}`
    /// rows).
    pub fn start(net: &Network, endpoint: impl Into<EndpointId>, context: Collection) -> Rc<Self> {
        let endpoint = endpoint.into();
        let server = Rc::new(WebServer {
            endpoint: endpoint.clone(),
            net: net.clone(),
            context,
            pages: Rc::new(RefCell::new(HashMap::new())),
            served: Rc::new(RefCell::new(0)),
        });
        let handler = server.clone();
        net.register(endpoint, move |s, msg| {
            handler.on_request(s, &msg);
        });
        server
    }

    /// Publishes a page template. `{{body}}` placeholders are not needed;
    /// adaptation wraps the whole body.
    pub fn add_page(&self, name: impl Into<String>, body: impl Into<String>) {
        self.pages.borrow_mut().insert(name.into(), body.into());
    }

    /// Requests served so far.
    pub fn requests_served(&self) -> u64 {
        *self.served.borrow_mut()
    }

    /// Renders `page` for `user` right now (also used directly by tests).
    pub fn render(&self, page: &str, user: &UserId) -> Option<RenderedPage> {
        let template = self.pages.borrow().get(page)?.clone();
        let ctx = self.user_context(user);
        Some(adapt(page, &template, &ctx))
    }

    /// Reads the user's context row.
    pub fn user_context(&self, user: &UserId) -> UserWebContext {
        let row = self
            .context
            .find_one(&Query::eq("user", user.as_str()))
            .map(|d| d.body);
        let get = |row: &Option<Value>, key: &str| -> Option<String> {
            row.as_ref()?.get(key)?.as_str().map(str::to_owned)
        };
        UserWebContext {
            activity: get(&row, "activity"),
            audio: get(&row, "audio"),
            place: get(&row, "place"),
            last_topic: get(&row, "last_topic"),
        }
    }

    fn on_request(&self, sched: &mut Scheduler, msg: &sensocial_net::Message) {
        let Ok(request): Result<Value, _> = json::from_slice(&msg.payload) else {
            return;
        };
        let (Some(page), Some(user)) = (
            request.get("page").and_then(Value::as_str),
            request.get("user").and_then(Value::as_str),
        ) else {
            return;
        };
        *self.served.borrow_mut() += 1;
        let rendered = self.render(page, &UserId::new(user));
        let response = match rendered {
            Some(p) => json!({
                "status": 200,
                "title": p.title,
                "body": p.body,
                "contrast": match p.contrast { Contrast::High => "high", Contrast::Normal => "normal" },
                "suggestion": p.suggestion,
            }),
            None => json!({"status": 404}),
        };
        let _ = self.net.send(
            sched,
            &self.endpoint,
            &msg.from,
            response.to_string().into_bytes(),
        );
    }
}

/// The adaptation rules: outdoor/moving → high contrast; noisy → terse
/// body; a recent post topic → a shopping suggestion.
fn adapt(page: &str, template: &str, ctx: &UserWebContext) -> RenderedPage {
    let moving = matches!(ctx.activity.as_deref(), Some("walking") | Some("running"));
    let outside = ctx.place.is_some() && moving;
    let contrast = if outside || moving {
        Contrast::High
    } else {
        Contrast::Normal
    };
    let noisy = ctx.audio.as_deref() == Some("not_silent");
    let body = if noisy {
        // Terse rendering for distracted users.
        let first_sentence: String = template.chars().take(80).collect();
        format!("{first_sentence}…")
    } else {
        template.to_owned()
    };
    let suggestion = ctx
        .last_topic
        .as_deref()
        .map(|topic| format!("Because you posted about {topic}: see our {topic} picks"));
    RenderedPage {
        title: page.to_owned(),
        body,
        contrast,
        suggestion,
    }
}

/// The ConWeb browser: requests a page every `refresh` interval ("a page
/// is automatically refreshed every T seconds", §6.2) and keeps the last
/// rendering.
pub struct ConWebBrowser {
    endpoint: EndpointId,
    last_page: Rc<RefCell<Option<Value>>>,
    pages_loaded: Rc<RefCell<u64>>,
    timer: TimerHandle,
}

impl std::fmt::Debug for ConWebBrowser {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConWebBrowser")
            .field("endpoint", &self.endpoint)
            .field("pages_loaded", &*self.pages_loaded.borrow_mut())
            .finish_non_exhaustive()
    }
}

impl ConWebBrowser {
    /// Opens the browser at its own endpoint and starts auto-refreshing
    /// `page` for `user` from the server at `server_endpoint`.
    pub fn open(
        sched: &mut Scheduler,
        net: &Network,
        endpoint: impl Into<EndpointId>,
        server_endpoint: impl Into<EndpointId>,
        user: UserId,
        page: impl Into<String>,
        refresh: SimDuration,
    ) -> Self {
        let endpoint = endpoint.into();
        let server_endpoint = server_endpoint.into();
        let page = page.into();
        let last_page: Rc<RefCell<Option<Value>>> = Rc::new(RefCell::new(None));
        let pages_loaded = Rc::new(RefCell::new(0u64));

        let sink = last_page.clone();
        let counter = pages_loaded.clone();
        net.register(endpoint.clone(), move |_s, msg| {
            if let Ok(response) = json::from_slice::<Value>(&msg.payload) {
                *counter.borrow_mut() += 1;
                *sink.borrow_mut() = Some(response);
            }
        });

        let request = json!({"page": page, "user": user.as_str()}).to_string();
        let net = net.clone();
        let from = endpoint.clone();
        let timer = Timer::start_with_phase(sched, SimDuration::ZERO, refresh, move |s| {
            let _ = net.send(s, &from, &server_endpoint, request.clone().into_bytes());
        });

        ConWebBrowser {
            endpoint,
            last_page,
            pages_loaded,
            timer,
        }
    }

    /// The last response received, if any.
    pub fn last_page(&self) -> Option<Value> {
        self.last_page.borrow().clone()
    }

    /// Page loads completed.
    pub fn pages_loaded(&self) -> u64 {
        *self.pages_loaded.borrow_mut()
    }

    /// Stops auto-refreshing (the paper: streams pause "once the ConWeb
    /// browser is killed by the user").
    pub fn close(&self) {
        self.timer.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensocial_net::{LatencyModel, LinkSpec};

    fn web_fixture() -> (Scheduler, Network, Rc<WebServer>, Collection) {
        let sched = Scheduler::new();
        let net = Network::new(3);
        net.set_default_link(LinkSpec::with_latency(LatencyModel::constant_ms(30)));
        let context = Collection::new("conweb_context");
        let server = WebServer::start(&net, "web", context.clone());
        server.add_page("news", "All the day's headlines in full detail and length");
        (sched, net, server, context)
    }

    #[test]
    fn renders_default_for_unknown_user() {
        let (_sched, _net, server, _ctx) = web_fixture();
        let page = server.render("news", &UserId::new("ghost")).unwrap();
        assert_eq!(page.contrast, Contrast::Normal);
        assert!(page.suggestion.is_none());
        assert!(page.body.contains("headlines"));
        assert!(server.render("missing", &UserId::new("ghost")).is_none());
    }

    #[test]
    fn adapts_to_context_rows() {
        let (_sched, _net, server, ctx) = web_fixture();
        ctx.insert(json!({
            "user": "alice",
            "activity": "running",
            "audio": "not_silent",
            "place": "Paris",
            "last_topic": "music",
        }))
        .unwrap();
        let page = server.render("news", &UserId::new("alice")).unwrap();
        assert_eq!(page.contrast, Contrast::High);
        assert!(page.body.ends_with('…'), "noisy → terse body");
        assert_eq!(
            page.suggestion.as_deref(),
            Some("Because you posted about music: see our music picks")
        );
    }

    #[test]
    fn browser_auto_refreshes_over_the_network() {
        let (mut sched, net, server, ctx) = web_fixture();
        let browser = ConWebBrowser::open(
            &mut sched,
            &net,
            "alice-browser",
            "web",
            UserId::new("alice"),
            "news",
            SimDuration::from_secs(30),
        );
        sched.run_for(SimDuration::from_secs(95));
        assert_eq!(browser.pages_loaded(), 4, "t=0,30,60,90");
        assert_eq!(server.requests_served(), 4);
        let first = browser.last_page().unwrap();
        assert_eq!(first["contrast"], "normal");

        // Context changes; the next refresh shows it.
        ctx.insert(json!({"user": "alice", "activity": "walking"}))
            .unwrap();
        sched.run_for(SimDuration::from_secs(30));
        let adapted = browser.last_page().unwrap();
        assert_eq!(adapted["contrast"], "high");

        browser.close();
        sched.run_for(SimDuration::from_mins(5));
        assert_eq!(browser.pages_loaded(), 5);
    }
}
