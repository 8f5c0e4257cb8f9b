// A strict parser and validator for Prometheus text exposition (format
// 0.0.4): the reference oracle the exposition tests and
// bench/obs_overhead's CI gate check obs::RenderPrometheus against, so a
// malformed document fails in-tree instead of at scrape time. It is not
// part of the library; test executables and the bench compile it in.

#ifndef MSV_TESTS_PROMETHEUS_TEXT_H_
#define MSV_TESTS_PROMETHEUS_TEXT_H_

#include <string>
#include <utility>
#include <vector>

#include "util/result.h"

namespace msv::obs {

using Labels = std::vector<std::pair<std::string, std::string>>;

/// One exposition sample line, parsed.
struct PromSample {
  std::string name;
  Labels labels;
  double value = 0.0;
};

/// One metric family: the `# TYPE` declaration plus its samples (for
/// histograms that includes the `_bucket`/`_sum`/`_count` series).
struct PromFamily {
  std::string name;
  std::string type;  ///< counter | gauge | histogram | untyped
  std::vector<PromSample> samples;
};

/// Strict parse of a text-exposition document: every non-comment line
/// must be a well-formed sample (valid metric name, quoted label
/// values, finite-or-Inf value), every sample must belong to a family
/// declared by a preceding `# TYPE` line, and no family is declared
/// twice. Returns the families in declaration order.
Result<std::vector<PromFamily>> ParsePrometheusText(const std::string& text);

/// Parse + semantic checks: counter families named `*_total`; in each
/// histogram series (the samples sharing one label set apart from `le`)
/// `_bucket` samples cumulative and increasing in `le`, with a `+Inf`
/// bucket equal to `_count`. OK iff a Prometheus server would ingest the
/// document.
Status ValidatePrometheusText(const std::string& text);

}  // namespace msv::obs

#endif  // MSV_TESTS_PROMETHEUS_TEXT_H_
