#include "analysis/service.hh"

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>

#include "analysis/fdo.hh"
#include "analysis/report.hh"
#include "support/logging.hh"
#include "support/strings.hh"
#include "support/telemetry.hh"

namespace hbbp {

std::optional<RenderFormat>
renderFormatFromName(const std::string &format_name)
{
    if (format_name == "text")
        return RenderFormat::Text;
    if (format_name == "csv")
        return RenderFormat::Csv;
    if (format_name == "json")
        return RenderFormat::Json;
    return std::nullopt;
}

const char *
name(RenderFormat format)
{
    switch (format) {
    case RenderFormat::Text: return "text";
    case RenderFormat::Csv: return "csv";
    case RenderFormat::Json: return "json";
    }
    panic("invalid RenderFormat %d", static_cast<int>(format));
}

// ---------------------------------------------------------------------------
// QueryRequest.
// ---------------------------------------------------------------------------

std::string
QueryRequest::param(const std::string &key,
                    const std::string &fallback) const
{
    auto it = params.find(key);
    return it == params.end() ? fallback : it->second;
}

std::string
QueryRequest::renderText() const
{
    std::string out = format("hbbp-query/%u\n", kQueryApiVersion);
    out += "verb=" + verb + "\n";
    for (const auto &[key, value] : params)
        out += key + "=" + value + "\n";
    return out;
}

std::string
QueryRequest::cacheKey() const
{
    std::string out = format("hbbp-query/%u\n", kQueryApiVersion);
    out += "verb=" + verb + "\n";
    for (const auto &[key, value] : params)
        if (key != "format")
            out += key + "=" + value + "\n";
    return out;
}

std::optional<QueryRequest>
QueryRequest::parseText(const std::string &body, std::string *why)
{
    std::vector<std::string> lines = split(body, '\n');
    std::string version_prefix = "hbbp-query/";
    if (lines.empty() || !startsWith(lines[0], version_prefix)) {
        *why = "malformed query: first line must be "
               "hbbp-query/<version>";
        return std::nullopt;
    }
    std::string version = lines[0].substr(version_prefix.size());
    if (version != format("%u", kQueryApiVersion)) {
        *why = format("unsupported query protocol version '%s' (this "
                      "build speaks hbbp-query/%u)", version.c_str(),
                      kQueryApiVersion);
        return std::nullopt;
    }

    QueryRequest req;
    for (size_t i = 1; i < lines.size(); i++) {
        const std::string &line = lines[i];
        if (line.empty())
            continue; // The body's trailing newline.
        size_t eq = line.find('=');
        if (eq == std::string::npos || eq == 0) {
            *why = format("malformed query parameter line '%s' "
                          "(expected key=value)", line.c_str());
            return std::nullopt;
        }
        std::string key = line.substr(0, eq);
        std::string value = line.substr(eq + 1);
        if (key == "verb") {
            if (!req.verb.empty()) {
                *why = "duplicate query parameter 'verb'";
                return std::nullopt;
            }
            req.verb = value;
        } else {
            if (req.params.count(key)) {
                *why = format("duplicate query parameter '%s'",
                              key.c_str());
                return std::nullopt;
            }
            req.params[key] = value;
        }
    }
    if (req.verb.empty()) {
        *why = "malformed query: missing verb";
        return std::nullopt;
    }
    return req;
}

// ---------------------------------------------------------------------------
// QueryResult rendering.
// ---------------------------------------------------------------------------

namespace {

/** One section as a JSON object (table preferred over text). */
std::string
sectionJson(const QuerySection &section)
{
    std::string out =
        format("{\"title\":\"%s\",", jsonEscape(section.title).c_str());
    if (section.table) {
        out += "\"headers\":[";
        const auto &headers = section.table->headers();
        for (size_t i = 0; i < headers.size(); i++) {
            if (i)
                out += ",";
            out += "\"" + jsonEscape(headers[i]) + "\"";
        }
        out += "],\"rows\":[";
        std::vector<std::vector<std::string>> rows =
            section.table->dataRows();
        for (size_t r = 0; r < rows.size(); r++) {
            if (r)
                out += ",";
            out += "[";
            for (size_t c = 0; c < rows[r].size(); c++) {
                if (c)
                    out += ",";
                out += "\"" + jsonEscape(rows[r][c]) + "\"";
            }
            out += "]";
        }
        out += "]}";
    } else {
        out += format("\"text\":\"%s\"}",
                      jsonEscape(section.text.value_or("")).c_str());
    }
    return out;
}

} // namespace

std::string
QueryResult::render(RenderFormat fmt) const
{
    if (fmt == RenderFormat::Text) {
        std::string out;
        bool first = true;
        for (const QuerySection &s : sections) {
            if (!first)
                out += "\n";
            first = false;
            if (s.text) {
                out += *s.text;
            } else if (s.table) {
                if (!s.title.empty())
                    out += s.title + ":\n";
                out += s.table->render();
            }
        }
        if (trailing_newline)
            out += "\n";
        return out;
    }
    if (fmt == RenderFormat::Csv) {
        std::string out;
        bool first = true;
        for (const QuerySection &s : sections) {
            if (!s.table)
                continue; // Prose sections have no cells.
            if (!first)
                out += "\n";
            first = false;
            if (!s.title.empty())
                out += "# " + s.title + "\n";
            out += s.table->renderCsv();
        }
        return out;
    }
    std::string out = format(
        "{\"verb\":\"%s\",\"epoch\":%llu,\"cached\":%s,\"sections\":[",
        jsonEscape(verb).c_str(),
        static_cast<unsigned long long>(epoch),
        cached ? "true" : "false");
    for (size_t i = 0; i < sections.size(); i++) {
        if (i)
            out += ",";
        out += sectionJson(sections[i]);
    }
    out += "]}\n";
    return out;
}

QueryResult
QueryResult::failure(std::string verb, uint64_t epoch,
                     std::string error)
{
    QueryResult r;
    r.verb = std::move(verb);
    r.epoch = epoch;
    r.error = std::move(error);
    return r;
}

// ---------------------------------------------------------------------------
// AnalysisService.
// ---------------------------------------------------------------------------

namespace {

/** Strict double parse for a query parameter; error text or "". */
std::string
parseNumberParam(const QueryRequest &req, const char *key,
                 double *out)
{
    std::string value = req.param(key);
    if (value.empty())
        return "";
    errno = 0;
    char *end = nullptr;
    double v = std::strtod(value.c_str(), &end);
    if (*end != '\0' || errno == ERANGE)
        return format("invalid value '%s' for parameter '%s' "
                      "(expected a number)", value.c_str(), key);
    *out = v;
    return "";
}

/** Strict 0/1 parse for a query parameter; error text or "". */
std::string
parseBoolParam(const QueryRequest &req, const char *key, bool *out)
{
    std::string value = req.param(key);
    if (value.empty())
        return "";
    if (value != "0" && value != "1")
        return format("invalid value '%s' for parameter '%s' "
                      "(expected 0 or 1)", value.c_str(), key);
    *out = value == "1";
    return "";
}

/** Strict non-negative integer parse; error text or "". */
std::string
parseCountParam(const QueryRequest &req, const char *key,
                uint64_t *out)
{
    std::string value = req.param(key);
    if (value.empty())
        return "";
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(value.c_str(), &end, 10);
    if (*end != '\0' || errno == ERANGE || value[0] == '-')
        return format("invalid value '%s' for parameter '%s' "
                      "(expected a non-negative integer)",
                      value.c_str(), key);
    *out = v;
    return "";
}

/** dimFromName without the CLI's fatal(): a bad query must not kill
 *  the daemon. */
std::optional<MixDim>
dimFromNameOpt(const std::string &dim_name)
{
    for (MixDim d : {MixDim::Module, MixDim::Function, MixDim::Block,
                     MixDim::Mnemonic, MixDim::Isa, MixDim::Category,
                     MixDim::Packing, MixDim::Width, MixDim::Ring,
                     MixDim::MemAccess}) {
        if (dim_name == name(d))
            return d;
    }
    return std::nullopt;
}

/** The mix of @p res selected by the `source` parameter. */
std::optional<InstructionMix>
selectMix(const AnalysisResult &res, const std::string &source,
          std::string *error)
{
    if (source == "hbbp")
        return res.hbbpMix();
    if (source == "ebs")
        return res.ebsMix();
    if (source == "lbr")
        return res.lbrMix();
    *error = format("unknown source '%s'", source.c_str());
    return std::nullopt;
}

} // namespace

void
AnalysisService::refreshEpoch()
{
    uint64_t epoch = source_.epoch();
    if (epoch == cache_epoch_)
        return;
    cache_epoch_ = epoch;
    result_cache_.clear();
    analysis_cache_.clear();
}

std::string
AnalysisService::checkParams(const QueryRequest &request,
                             const std::vector<std::string> &allowed)
{
    for (const auto &[key, value] : request.params) {
        bool known = false;
        for (const std::string &a : allowed)
            if (key == a)
                known = true;
        if (!known)
            return format("unknown parameter '%s' for verb '%s'",
                          key.c_str(), request.verb.c_str());
    }
    return "";
}

const AnalysisResult *
AnalysisService::analysisFor(const QueryRequest &request,
                             std::string *error)
{
    double cutoff = 18.0;
    bool bias = true, patch = false;
    std::string bad;
    if (!(bad = parseNumberParam(request, "cutoff", &cutoff)).empty() ||
        !(bad = parseBoolParam(request, "bias", &bias)).empty() ||
        !(bad = parseBoolParam(request, "patch", &patch)).empty()) {
        *error = bad;
        return nullptr;
    }
    std::string host = request.param("host");

    std::string key = format("cutoff=%.17g;bias=%d;patch=%d;host=%s",
                             cutoff, bias ? 1 : 0, patch ? 1 : 0,
                             host.c_str());
    auto it = analysis_cache_.find(key);
    if (it != analysis_cache_.end())
        return it->second.get();

    std::string workload_name = source_.workloadName();
    if (workload_name.empty()) {
        *error = "no profile to analyze yet (no shards aggregated)";
        return nullptr;
    }
    if (!workload_ || workload_->name != workload_name) {
        std::optional<Workload> w =
            resolver_ ? resolver_(workload_name) : std::nullopt;
        if (!w) {
            *error = format("unknown workload '%s'",
                            workload_name.c_str());
            return nullptr;
        }
        workload_ = std::move(w);
    }

    const ProfileData *profile = host.empty()
                                     ? source_.profile()
                                     : source_.hostProfile(host);
    if (!profile) {
        *error = host.empty()
                     ? "no profile to analyze yet (no shards "
                       "aggregated)"
                     : format("no shards aggregated from host '%s'",
                              host.c_str());
        return nullptr;
    }

    AnalyzerOptions aopts;
    aopts.map.patch_kernel_text = patch;
    aopts.classifier = std::make_shared<CutoffClassifier>(cutoff, bias);
    Analyzer analyzer(aopts);
    auto res = std::make_unique<AnalysisResult>(
        analyzer.analyze(*workload_->program, *profile, &last_run_));
    stats_.analyses++;
    const AnalysisResult *out = res.get();
    if (analysis_cache_.size() >= kMaxCachedAnalyses)
        analysis_cache_.clear();
    analysis_cache_.emplace(std::move(key), std::move(res));
    return out;
}

QueryResult
AnalysisService::buildMix(const QueryRequest &request)
{
    uint64_t epoch = source_.epoch();
    std::string bad = checkParams(
        request, {"source", "cutoff", "bias", "patch", "pivot", "top",
                  "function", "host", "format"});
    if (!bad.empty())
        return QueryResult::failure("mix", epoch, bad);

    std::string error;
    const AnalysisResult *res = analysisFor(request, &error);
    if (!res)
        return QueryResult::failure("mix", epoch, error);
    std::optional<InstructionMix> mix =
        selectMix(*res, request.param("source", "hbbp"), &error);
    if (!mix)
        return QueryResult::failure("mix", epoch, error);

    QueryResult r;
    std::string function = request.param("function");
    if (!function.empty()) {
        Reporter reporter(*mix);
        std::string listing =
            reporter.annotatedDisassembly(function);
        if (listing.empty())
            return QueryResult::failure(
                "mix", epoch,
                format("no function named '%s'", function.c_str()));
        QuerySection s;
        s.text = std::move(listing);
        r.sections.push_back(std::move(s));
        return r;
    }

    MixQuery q;
    std::string pivot = request.param("pivot");
    if (!pivot.empty()) {
        q.group_by.clear();
        for (const std::string &dim_name : split(pivot, ',')) {
            std::optional<MixDim> dim = dimFromNameOpt(dim_name);
            if (!dim)
                return QueryResult::failure(
                    "mix", epoch,
                    format("unknown pivot dimension '%s'",
                           dim_name.c_str()));
            q.group_by.push_back(*dim);
        }
    }
    uint64_t top = 0;
    if (!(bad = parseCountParam(request, "top", &top)).empty())
        return QueryResult::failure("mix", epoch, bad);
    q.top_n = static_cast<size_t>(top);

    QuerySection s;
    s.table = mix->pivotTable(q);
    r.sections.push_back(std::move(s));
    return r;
}

QueryResult
AnalysisService::buildReport(const QueryRequest &request)
{
    uint64_t epoch = source_.epoch();
    std::string bad = checkParams(
        request,
        {"source", "cutoff", "bias", "patch", "host", "format"});
    if (!bad.empty())
        return QueryResult::failure("report", epoch, bad);

    std::string error;
    const AnalysisResult *res = analysisFor(request, &error);
    if (!res)
        return QueryResult::failure("report", epoch, error);
    std::optional<InstructionMix> mix =
        selectMix(*res, request.param("source", "hbbp"), &error);
    if (!mix)
        return QueryResult::failure("report", epoch, error);

    Reporter reporter(*mix);
    QueryResult r;
    // The sections mirror Reporter::summary() exactly: text render is
    // byte-identical to the legacy `report` output (summary + "\n").
    r.trailing_newline = true;
    QuerySection total;
    total.text = format("total executed instructions: %s\n",
                        withSeparators(static_cast<uint64_t>(
                            mix->totalInstructions() + 0.5)).c_str());
    r.sections.push_back(std::move(total));
    auto add = [&](const char *title, TextTable table) {
        QuerySection s;
        s.title = title;
        s.table = std::move(table);
        r.sections.push_back(std::move(s));
    };
    add("top functions", reporter.topFunctions());
    add("top mnemonics", reporter.topMnemonics(12));
    add("ISA breakdown", reporter.isaBreakdown());
    add("families", reporter.familyBreakdown());
    add("rings", reporter.ringBreakdown());
    add("memory", reporter.memoryBreakdown());
    return r;
}

QueryResult
AnalysisService::buildFdo(const QueryRequest &request)
{
    uint64_t epoch = source_.epoch();
    std::string bad = checkParams(
        request, {"cutoff", "bias", "patch", "host", "format"});
    if (!bad.empty())
        return QueryResult::failure("fdo", epoch, bad);

    std::string error;
    const AnalysisResult *res = analysisFor(request, &error);
    if (!res)
        return QueryResult::failure("fdo", epoch, error);

    FdoProfile fdo(res->map, res->hbbp);
    QueryResult r;
    QuerySection s;
    // Text render must stay the byte-exact AutoFDO-like serialization
    // a compiler consumes; the table carries the per-function shape
    // for csv/json.
    s.text = fdo.toText();
    TextTable table({"function", "entry", "total_instructions"});
    table.setAlign(1, Align::Right);
    table.setAlign(2, Align::Right);
    for (const FdoFunction &fn : fdo.functions()) {
        if (fn.total_instructions <= 0)
            continue;
        table.addRow(
            {fn.name,
             format("%llu", static_cast<unsigned long long>(
                                fn.entry_count + 0.5)),
             format("%llu", static_cast<unsigned long long>(
                                fn.total_instructions + 0.5))});
    }
    s.table = std::move(table);
    r.sections.push_back(std::move(s));
    return r;
}

QueryResult
AnalysisService::buildHosts(const QueryRequest &request)
{
    uint64_t epoch = source_.epoch();
    std::string bad = checkParams(request, {"format"});
    if (!bad.empty())
        return QueryResult::failure("hosts", epoch, bad);

    TextTable table({"host", "covered", "pending"});
    table.setAlign(1, Align::Right);
    table.setAlign(2, Align::Right);
    for (const HostSlice &s : source_.hostSlices())
        table.addRow({s.host, format("%u", s.covered),
                      format("%zu", s.pending)});
    QueryResult r;
    QuerySection s;
    s.table = std::move(table);
    r.sections.push_back(std::move(s));
    return r;
}

QueryResult
AnalysisService::buildStatus(const QueryRequest &request)
{
    uint64_t epoch = source_.epoch();
    std::string bad = checkParams(request, {"format"});
    if (!bad.empty())
        return QueryResult::failure("status", epoch, bad);

    size_t covered = 0, pending = 0;
    std::vector<HostSlice> slices = source_.hostSlices();
    for (const HostSlice &s : slices) {
        covered += s.covered;
        pending += s.pending;
    }
    std::vector<std::pair<std::string, std::string>> kv = {
        {"workload", source_.workloadName()},
        {"epoch", format("%llu",
                         static_cast<unsigned long long>(epoch))},
        {"hosts", format("%zu", slices.size())},
        {"covered", format("%zu", covered + pending)},
        {"pending", format("%zu", pending)},
        {"requests", format("%llu", static_cast<unsigned long long>(
                                        stats_.requests))},
        {"cache_hits", format("%llu", static_cast<unsigned long long>(
                                          stats_.hits))},
        {"cache_misses",
         format("%llu", static_cast<unsigned long long>(
                            stats_.misses))},
        {"errors", format("%llu", static_cast<unsigned long long>(
                                      stats_.errors))},
        {"analyses", format("%llu", static_cast<unsigned long long>(
                                        stats_.analyses))},
    };

    QueryResult r;
    QuerySection s;
    std::string text;
    TextTable table({"key", "value"});
    for (const auto &[key, value] : kv) {
        text += key + "=" + value + "\n";
        table.addRow({key, value});
    }
    s.text = std::move(text);
    s.table = std::move(table);
    r.sections.push_back(std::move(s));
    return r;
}

namespace {

/** Steady-clock nanoseconds for the serve-timing split. */
int64_t
serveNowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

QueryResult
AnalysisService::serve(const QueryRequest &request, ServeTiming *timing)
{
    static telemetry::Counter &m_requests =
        telemetry::counter("hbbp_query_requests_total");
    static telemetry::Counter &m_hits =
        telemetry::counter("hbbp_query_cache_hits_total");
    static telemetry::Counter &m_misses =
        telemetry::counter("hbbp_query_cache_misses_total");
    static telemetry::Counter &m_errors =
        telemetry::counter("hbbp_query_errors_total");

    stats_.requests++;
    m_requests.add();
    int64_t t0 = serveNowNs();
    refreshEpoch();
    uint64_t epoch = source_.epoch();
    const std::string &verb = request.verb;

    // Format validation is uniform across verbs (every verb renders).
    std::string format_name = request.param("format", "text");
    if (!renderFormatFromName(format_name)) {
        stats_.errors++;
        m_errors.add();
        if (timing)
            timing->cache_ns =
                static_cast<uint64_t>(serveNowNs() - t0);
        return QueryResult::failure(
            verb, epoch,
            format("unknown format '%s' (expected: text, csv, json)",
                   format_name.c_str()));
    }

    bool cacheable =
        verb == "mix" || verb == "report" || verb == "fdo";
    if (cacheable) {
        auto it = result_cache_.find(request.cacheKey());
        if (it != result_cache_.end()) {
            stats_.hits++;
            m_hits.add();
            QueryResult r = it->second;
            r.cached = true;
            if (timing)
                timing->cache_ns =
                    static_cast<uint64_t>(serveNowNs() - t0);
            return r;
        }
        stats_.misses++;
        m_misses.add();
    }

    int64_t t1 = serveNowNs();
    if (timing)
        timing->cache_ns = static_cast<uint64_t>(t1 - t0);

    last_run_ = AnalysisTiming{};
    QueryResult r;
    if (verb == "mix")
        r = buildMix(request);
    else if (verb == "report")
        r = buildReport(request);
    else if (verb == "fdo")
        r = buildFdo(request);
    else if (verb == "hosts")
        r = buildHosts(request);
    else if (verb == "status")
        r = buildStatus(request);
    else
        r = QueryResult::failure(
            verb, epoch,
            format("unknown verb '%s' (expected: mix, report, fdo, "
                   "hosts, status)", verb.c_str()));
    r.verb = verb;
    r.epoch = epoch;
    r.cached = false;
    if (timing) {
        timing->analysis_ns =
            static_cast<uint64_t>(serveNowNs() - t1);
        timing->blockmap_ns = last_run_.blockmap_ns;
        timing->bbec_ns = last_run_.bbec_ns;
    }
    if (!r.error.empty()) {
        stats_.errors++;
        m_errors.add();
        return r;
    }
    if (cacheable) {
        if (result_cache_.size() >= kMaxCachedResults)
            result_cache_.clear();
        result_cache_.emplace(request.cacheKey(), r);
    }
    return r;
}

} // namespace hbbp
