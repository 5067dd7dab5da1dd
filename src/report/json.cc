#include "report/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "support/error.h"

namespace nse
{

std::string
jsonQuote(const std::string &s)
{
    std::string out = "\"";
    for (unsigned char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    out += '"';
    return out;
}

BenchJson::BenchJson(std::string bench_name) : name_(std::move(bench_name))
{}

void
BenchJson::addTable(const std::string &label, const Table &table)
{
    tables_.push_back({label, table.headers(), table.rows()});
}

void
BenchJson::setMetricRaw(const std::string &key, std::string rendered)
{
    for (auto &[k, v] : metrics_) {
        if (k == key) {
            v = std::move(rendered);
            return;
        }
    }
    metrics_.emplace_back(key, std::move(rendered));
}

void
BenchJson::setMetric(const std::string &key, uint64_t value)
{
    setMetricRaw(key, std::to_string(value));
}

void
BenchJson::setMetric(const std::string &key, double value)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", value);
    setMetricRaw(key, buf);
}

double
BenchJson::metric(const std::string &key) const
{
    for (const auto &[k, v] : metrics_)
        if (k == key)
            return std::strtod(v.c_str(), nullptr);
    fatal("bench ", name_, " has no metric \"", key, "\"");
}

namespace
{

const char *
opName(CheckOp op)
{
    switch (op) {
      case CheckOp::Eq: return "==";
      case CheckOp::Lt: return "<";
      case CheckOp::Le: return "<=";
      case CheckOp::Gt: return ">";
      case CheckOp::Ge: return ">=";
    }
    return "?";
}

/** Shortest round-trip rendering of a double. */
std::string
fmtExact(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
}

} // namespace

bool
BenchJson::addCheck(std::string name, double value, CheckOp op,
                    double threshold)
{
    bool pass = false;
    switch (op) {
      case CheckOp::Eq: pass = value == threshold; break;
      case CheckOp::Lt: pass = value < threshold; break;
      case CheckOp::Le: pass = value <= threshold; break;
      case CheckOp::Gt: pass = value > threshold; break;
      case CheckOp::Ge: pass = value >= threshold; break;
    }
    checks_.push_back({std::move(name), value, op, threshold, pass});
    return pass;
}

bool
BenchJson::check(const std::string &metric_key, CheckOp op,
                 double threshold)
{
    return addCheck(metric_key, metric(metric_key), op, threshold);
}

bool
BenchJson::checkTable(const std::string &label)
{
    bool found = false;
    for (const Entry &e : tables_)
        found = found || e.label == label;
    return addCheck("table:" + label, found ? 1.0 : 0.0, CheckOp::Eq, 1.0);
}

std::vector<std::string>
BenchJson::failedChecks() const
{
    std::vector<std::string> out;
    for (const Check &c : checks_)
        if (!c.pass)
            out.push_back(cat(name_, ": ", c.name, " ", opName(c.op), " ",
                              fmtExact(c.threshold), " (value ",
                              fmtExact(c.value), ")"));
    return out;
}

std::string
BenchJson::str() const
{
    std::ostringstream os;
    auto emitStrings = [&](const std::vector<std::string> &v) {
        os << "[";
        for (size_t i = 0; i < v.size(); ++i)
            os << (i ? "," : "") << jsonQuote(v[i]);
        os << "]";
    };

    os << "{\n  \"bench\": " << jsonQuote(name_)
       << ",\n  \"metrics\": {";
    for (size_t m = 0; m < metrics_.size(); ++m) {
        os << (m ? ", " : "") << jsonQuote(metrics_[m].first) << ": "
           << metrics_[m].second;
    }
    os << "},\n  \"tables\": [";
    for (size_t t = 0; t < tables_.size(); ++t) {
        const Entry &e = tables_[t];
        os << (t ? ",\n    {" : "\n    {");
        os << "\"label\": " << jsonQuote(e.label) << ", \"headers\": ";
        emitStrings(e.headers);
        os << ", \"rows\": [";
        for (size_t r = 0; r < e.rows.size(); ++r) {
            os << (r ? ",\n      " : "\n      ");
            emitStrings(e.rows[r]);
        }
        os << (e.rows.empty() ? "]}" : "\n    ]}");
    }
    os << (tables_.empty() ? "]" : "\n  ]") << ",\n  \"checks\": [";
    for (size_t c = 0; c < checks_.size(); ++c) {
        const Check &k = checks_[c];
        os << (c ? ",\n    {" : "\n    {") << "\"name\": "
           << jsonQuote(k.name) << ", \"value\": " << fmtExact(k.value)
           << ", \"op\": " << jsonQuote(opName(k.op))
           << ", \"threshold\": " << fmtExact(k.threshold)
           << ", \"pass\": " << (k.pass ? "true" : "false") << "}";
    }
    os << (checks_.empty() ? "]\n}\n" : "\n  ]\n}\n");
    return os.str();
}

std::string
BenchJson::write() const
{
    const char *dir = std::getenv("NSE_BENCH_JSON_DIR");
    std::string d = dir ? dir : ".";
    if (d == "off")
        return "";
    std::string path = d + "/BENCH_" + name_ + ".json";
    std::ofstream os(path, std::ios::trunc);
    if (!os) {
        std::fprintf(stderr,
                     "warning: cannot open bench JSON output %s\n",
                     path.c_str());
        return "";
    }
    os << str();
    os.flush();
    if (!os) {
        std::fprintf(stderr,
                     "warning: short write to bench JSON output %s\n",
                     path.c_str());
        return "";
    }
    return path;
}

} // namespace nse
