#include "obs/flight_recorder.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>

#include "obs/events.hpp"
#include "obs/json.hpp"
#include "util/error.hpp"

namespace bsis::obs {

namespace {

namespace fs = std::filesystem;

// --- minimal JSON sidecar writer -----------------------------------------

void json_number(std::ostream& os, real_type v)
{
    // NaN/Inf are not valid JSON numbers; the sidecar encodes them as
    // strings and the reader maps them back.
    if (std::isnan(v)) {
        os << "\"nan\"";
    } else if (std::isinf(v)) {
        os << (v > 0 ? "\"inf\"" : "\"-inf\"");
    } else {
        std::ostringstream tmp;
        tmp.precision(17);
        tmp << v;
        os << tmp.str();
    }
}

void write_meta(std::ostream& os, const FailureBundleMeta& meta)
{
    os << "{\n";
    os << "  \"failure\": ";
    json_quote(os, meta.failure);
    os << ",\n  \"solver\": ";
    json_quote(os, meta.solver);
    os << ",\n  \"precond\": ";
    json_quote(os, meta.precond);
    os << ",\n  \"stop\": ";
    json_quote(os, meta.stop);
    os << ",\n  \"tolerance\": ";
    json_number(os, meta.tolerance);
    os << ",\n  \"max_iterations\": " << meta.max_iterations;
    os << ",\n  \"gmres_restart\": " << meta.gmres_restart;
    os << ",\n  \"block_jacobi_size\": " << meta.block_jacobi_size;
    os << ",\n  \"richardson_omega\": ";
    json_number(os, meta.richardson_omega);
    os << ",\n  \"used_initial_guess\": "
       << (meta.used_initial_guess ? "true" : "false");
    os << ",\n  \"pipelined\": " << (meta.pipelined ? "true" : "false");
    os << ",\n  \"lockstep_width\": " << meta.lockstep_width;
    os << ",\n  \"system_index\": " << meta.system_index;
    os << ",\n  \"iterations\": " << meta.iterations;
    os << ",\n  \"residual_norm\": ";
    json_number(os, meta.residual_norm);
    os << ",\n  \"history_iterations\": [";
    for (std::size_t i = 0; i < meta.history_iterations.size(); ++i) {
        os << (i == 0 ? "" : ", ") << meta.history_iterations[i];
    }
    os << "],\n  \"history_residuals\": [";
    for (std::size_t i = 0; i < meta.history_residuals.size(); ++i) {
        os << (i == 0 ? "" : ", ");
        json_number(os, meta.history_residuals[i]);
    }
    os << "]\n}\n";
}

// --- minimal JSON sidecar parser -----------------------------------------
//
// Parses exactly the flat object write_meta produces (string / number /
// bool / flat array values). Good enough for the replay tool without
// dragging a JSON dependency into the library.

struct JsonScanner {
    const std::string& text;
    std::size_t pos = 0;

    void skip_ws()
    {
        while (pos < text.size() &&
               std::isspace(static_cast<unsigned char>(text[pos]))) {
            ++pos;
        }
    }

    bool consume(char c)
    {
        skip_ws();
        if (pos < text.size() && text[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }

    [[noreturn]] void fail(const std::string& what) const
    {
        throw ParseError("flight_recorder",
                         what + " at offset " + std::to_string(pos));
    }

    std::string parse_string()
    {
        skip_ws();
        if (pos >= text.size() || text[pos] != '"') {
            fail("expected string");
        }
        ++pos;
        std::string out;
        while (pos < text.size() && text[pos] != '"') {
            if (text[pos] == '\\' && pos + 1 < text.size()) {
                ++pos;
                const char c = text[pos];
                out += c == 'n' ? '\n' : c;
            } else {
                out += text[pos];
            }
            ++pos;
        }
        if (pos >= text.size()) {
            fail("unterminated string");
        }
        ++pos;
        return out;
    }

    real_type parse_number()
    {
        skip_ws();
        if (pos < text.size() && text[pos] == '"') {
            // "nan" / "inf" / "-inf" encoded non-finite values.
            const std::string s = parse_string();
            if (s == "nan") {
                return std::numeric_limits<real_type>::quiet_NaN();
            }
            if (s == "inf") {
                return std::numeric_limits<real_type>::infinity();
            }
            if (s == "-inf") {
                return -std::numeric_limits<real_type>::infinity();
            }
            fail("unknown encoded number '" + s + "'");
        }
        const std::size_t start = pos;
        while (pos < text.size() &&
               (std::isdigit(static_cast<unsigned char>(text[pos])) ||
                text[pos] == '-' || text[pos] == '+' || text[pos] == '.' ||
                text[pos] == 'e' || text[pos] == 'E')) {
            ++pos;
        }
        if (pos == start) {
            fail("expected number");
        }
        return static_cast<real_type>(
            std::stod(text.substr(start, pos - start)));
    }

    bool parse_bool()
    {
        skip_ws();
        if (text.compare(pos, 4, "true") == 0) {
            pos += 4;
            return true;
        }
        if (text.compare(pos, 5, "false") == 0) {
            pos += 5;
            return false;
        }
        fail("expected bool");
    }

    std::vector<real_type> parse_number_array()
    {
        std::vector<real_type> out;
        if (!consume('[')) {
            fail("expected array");
        }
        skip_ws();
        if (consume(']')) {
            return out;
        }
        for (;;) {
            out.push_back(parse_number());
            if (consume(']')) {
                return out;
            }
            if (!consume(',')) {
                fail("expected ',' in array");
            }
        }
    }
};

FailureBundleMeta parse_meta(const std::string& text)
{
    FailureBundleMeta meta;
    JsonScanner sc{text};
    if (!sc.consume('{')) {
        sc.fail("expected object");
    }
    sc.skip_ws();
    if (sc.consume('}')) {
        return meta;
    }
    for (;;) {
        const std::string key = sc.parse_string();
        if (!sc.consume(':')) {
            sc.fail("expected ':'");
        }
        if (key == "failure") {
            meta.failure = sc.parse_string();
        } else if (key == "solver") {
            meta.solver = sc.parse_string();
        } else if (key == "precond") {
            meta.precond = sc.parse_string();
        } else if (key == "stop") {
            meta.stop = sc.parse_string();
        } else if (key == "tolerance") {
            meta.tolerance = sc.parse_number();
        } else if (key == "max_iterations") {
            meta.max_iterations = static_cast<int>(sc.parse_number());
        } else if (key == "gmres_restart") {
            meta.gmres_restart = static_cast<int>(sc.parse_number());
        } else if (key == "block_jacobi_size") {
            meta.block_jacobi_size = static_cast<int>(sc.parse_number());
        } else if (key == "richardson_omega") {
            meta.richardson_omega = sc.parse_number();
        } else if (key == "used_initial_guess") {
            meta.used_initial_guess = sc.parse_bool();
        } else if (key == "fused_kernels") {
            // Retired key: bundles written while the unfused reference
            // BiCGStab still existed carry it. `true` names the only
            // kernel there is; `false` cannot be replayed faithfully.
            if (!sc.parse_bool()) {
                sc.fail("\"fused_kernels\": false names the retired "
                        "unfused BiCGStab kernel; this bundle cannot be "
                        "replayed");
            }
        } else if (key == "pipelined") {
            meta.pipelined = sc.parse_bool();
        } else if (key == "lockstep_width") {
            meta.lockstep_width = static_cast<int>(sc.parse_number());
        } else if (key == "system_index") {
            meta.system_index = static_cast<std::int64_t>(sc.parse_number());
        } else if (key == "iterations") {
            meta.iterations = static_cast<int>(sc.parse_number());
        } else if (key == "residual_norm") {
            meta.residual_norm = sc.parse_number();
        } else if (key == "history_iterations") {
            for (const auto v : sc.parse_number_array()) {
                meta.history_iterations.push_back(
                    static_cast<std::int64_t>(v));
            }
        } else if (key == "history_residuals") {
            meta.history_residuals = sc.parse_number_array();
        } else {
            sc.fail("unknown key '" + key + "'");
        }
        if (sc.consume('}')) {
            return meta;
        }
        if (!sc.consume(',')) {
            sc.fail("expected ',' in object");
        }
    }
}

std::string slurp(const fs::path& path)
{
    std::ifstream is(path);
    if (!is) {
        throw ParseError("flight_recorder",
                         "cannot open " + path.string());
    }
    std::ostringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

}  // namespace

FlightRecorder::FlightRecorder(std::string directory, int budget)
    : directory_(std::move(directory)), budget_(budget)
{
    BSIS_ENSURE_ARG(budget_ >= 0, "negative flight recorder budget");
}

std::int64_t FlightRecorder::seen() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return seen_;
}

int FlightRecorder::captured() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return captured_;
}

bool FlightRecorder::capture(const io::Coo& a, ConstVecView<real_type> b,
                             ConstVecView<real_type> x0,
                             const FailureBundleMeta& meta)
{
    int seq = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++seen_;
        if (captured_ >= budget_) {
            return false;
        }
        seq = captured_++;
    }
    // Filesystem writes happen outside the lock: bundles have distinct
    // sequence numbers, so concurrent captures never collide. The sequence
    // is zero-padded so the lexical sort in list_bundles is capture order.
    std::ostringstream name;
    name << std::setw(4) << std::setfill('0') << seq << "_sys"
         << meta.system_index;
    const fs::path dir = fs::path(directory_) / name.str();
    fs::create_directories(dir);
    {
        std::ofstream os(dir / "A.mtx");
        io::write_matrix(os, a);
    }
    {
        std::ofstream os(dir / "b.mtx");
        io::write_vector(os, b);
    }
    {
        std::ofstream os(dir / "x0.mtx");
        io::write_vector(os, x0);
    }
    {
        std::ofstream os(dir / "meta.json");
        write_meta(os, meta);
    }
    if (events_enabled()) {
        events().emit("failure.capture",
                      {field("bundle", dir.string()),
                       field("failure", meta.failure),
                       field("solver", meta.solver),
                       field("system_index", meta.system_index),
                       field("iterations", meta.iterations),
                       field("residual_norm",
                             static_cast<double>(meta.residual_norm))});
    }
    return true;
}

FailureBundle load_bundle(const std::string& bundle_dir)
{
    const fs::path dir(bundle_dir);
    FailureBundle bundle;
    {
        std::ifstream is(dir / "A.mtx");
        if (!is) {
            throw ParseError("flight_recorder",
                             "cannot open " + (dir / "A.mtx").string());
        }
        bundle.a = io::read_matrix(is);
    }
    {
        std::ifstream is(dir / "b.mtx");
        if (!is) {
            throw ParseError("flight_recorder",
                             "cannot open " + (dir / "b.mtx").string());
        }
        bundle.b = io::read_vector(is);
    }
    {
        std::ifstream is(dir / "x0.mtx");
        if (!is) {
            throw ParseError("flight_recorder",
                             "cannot open " + (dir / "x0.mtx").string());
        }
        bundle.x0 = io::read_vector(is);
    }
    bundle.meta = parse_meta(slurp(dir / "meta.json"));
    return bundle;
}

std::vector<std::string> list_bundles(const std::string& capture_dir)
{
    std::vector<std::string> out;
    const fs::path dir(capture_dir);
    if (!fs::exists(dir)) {
        return out;
    }
    for (const auto& entry : fs::directory_iterator(dir)) {
        if (entry.is_directory() &&
            fs::exists(entry.path() / "meta.json")) {
            out.push_back(entry.path().string());
        }
    }
    std::sort(out.begin(), out.end());
    return out;
}

}  // namespace bsis::obs
