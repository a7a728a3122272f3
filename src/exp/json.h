// The one JSON reader: sweep manifests (src/exp/manifest.cpp) and
// JSON-lines result rows (decode_json_line, src/exp/sink.cpp) both parse
// through it. It builds a small document tree and reports every failure
// with its byte offset and a reason. Numbers keep their raw text so 64-bit
// seeds and counters survive without a double round-trip. Escapes are the
// ones jsonl_sink writes and hand-written manifests use: the short forms
// plus \uXXXX below 0x80 (control bytes in error text come back as
// \u00XX); a non-ASCII \u escape is rejected.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace lnuca::exp {

struct jvalue {
    enum class kind { null_t, bool_t, number, string, array, object };
    kind k = kind::null_t;
    bool boolean = false;
    std::string text; ///< string payload, or a number's raw text
    std::vector<jvalue> items;                           ///< array
    std::vector<std::pair<std::string, jvalue>> members; ///< object, in order
};

/// Parse `text` as exactly one JSON value (surrounding whitespace allowed).
/// On failure returns false and, when `error` is non-null, sets it to
/// "JSON error at byte N: <reason>" naming the innermost failure.
bool parse_json(const std::string& text, jvalue& out, std::string* error);

/// A number that is a plain non-negative integer (no sign, fraction or
/// exponent: a count or seed with a fractional part is a mistake, not
/// something to round).
bool as_u64(const jvalue& v, std::uint64_t& out);

} // namespace lnuca::exp
