// Prometheus text exposition (format 0.0.4) of a metrics snapshot: the
// JSON object MetricRegistry::Snapshot() returns and the poller's export
// line carries under "metrics". `msv_top FILE --prom` renders the newest
// export line with it, which makes a running `msv_serve --metrics-file`
// scrapable through a node_exporter textfile collector.
//
// Each metric family gets one `# TYPE family kind` line followed by its
// `name{label="value",...} value` samples; counter families end in
// `_total`, histogram families expand to cumulative `_bucket{le=...}`
// plus `_sum`/`_count` per series.

#ifndef MSV_OBS_PROMETHEUS_H_
#define MSV_OBS_PROMETHEUS_H_

#include <string>

#include "obs/json.h"

namespace msv::obs {

/// Registry metric name -> Prometheus metric name: prefixed `msv_`,
/// every character outside [a-zA-Z0-9_:] replaced by '_'
/// ("io.disk.reads" -> "msv_io_disk_reads"). A `name{k=v}` labelled
/// series (MetricRegistry::Labeled) must be split before sanitizing.
std::string PrometheusName(const std::string& name);

/// The exposition text of a snapshot. Series whose names sanitize to
/// one family are grouped under that family's single TYPE line, in the
/// order the family first appears; a histogram emits cumulative buckets
/// only at the upper edges of its non-empty cells. A pure function of
/// `metrics`, so a snapshot parsed back from an export line renders the
/// same bytes as the registry it was taken from.
std::string RenderPrometheus(const Json& metrics);

}  // namespace msv::obs

#endif  // MSV_OBS_PROMETHEUS_H_
