//! `/BENCHMARK.json`, the one place metric bounds live. `selfcheck`
//! reads them from it, and the package's tests hold it to the names the
//! harness emits.

use crate::json::Json;

#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the reference median a metric may worsen by; per-layer
    /// metrics have none.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn metrics(doc: &Json, key: &str) -> Result<Vec<MetricSpec>, String> {
    let field = |m: &Json, k: &str| -> Result<String, String> {
        m.get(k)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or(format!("{key}: a metric lacks \"{k}\""))
    };
    doc.get(key)
        .and_then(Json::as_arr)
        .ok_or(format!("no \"{key}\" array"))?
        .iter()
        .map(|m| {
            Ok(MetricSpec {
                name: field(m, "name")?,
                unit: field(m, "unit")?,
                lower_is_better: field(m, "better")? == "lower",
                bound: m.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

impl Spec {
    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = Json::parse(text)?;
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or("no \"workloads\" array")?
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
            .collect();
        Ok(Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("no \"run_seconds\"")?,
            workloads,
            end_to_end: metrics(&doc, "end_to_end")?,
            per_layer: metrics(&doc, "per_layer")?,
        })
    }

    /// Read the file next to this package's directory.
    pub fn load() -> Result<Spec, String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Spec::parse(&text)
    }
}
