#include "src/exp/json.h"

#include <cstdlib>

namespace lnuca::exp {

namespace {

class json_reader {
public:
    explicit json_reader(const std::string& text) : s_(text) {}

    bool parse(jvalue& out, std::string* error)
    {
        skip_ws();
        bool ok = parse_value(out);
        if (ok) {
            skip_ws();
            if (pos_ != s_.size())
                ok = fail("trailing content after the top-level value");
        }
        if (!ok && error != nullptr) {
            *error = "JSON error at byte " + std::to_string(err_pos_) + ": " +
                     err_;
        }
        return ok;
    }

private:
    bool fail(const std::string& why)
    {
        if (err_.empty()) { // keep the innermost (root-cause) failure
            err_ = why;
            err_pos_ = pos_;
        }
        return false;
    }

    void skip_ws()
    {
        while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                    s_[pos_] == '\n' || s_[pos_] == '\r'))
            ++pos_;
    }

    bool consume(char c)
    {
        if (pos_ < s_.size() && s_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool parse_value(jvalue& out)
    {
        if (pos_ >= s_.size())
            return fail("unexpected end of input");
        const char c = s_[pos_];
        if (c == '{')
            return parse_object(out);
        if (c == '[')
            return parse_array(out);
        if (c == '"') {
            out.k = jvalue::kind::string;
            return parse_string(out.text);
        }
        if (c == '-' || (c >= '0' && c <= '9'))
            return parse_number(out);
        if (s_.compare(pos_, 4, "true") == 0) {
            out.k = jvalue::kind::bool_t;
            out.boolean = true;
            pos_ += 4;
            return true;
        }
        if (s_.compare(pos_, 5, "false") == 0) {
            out.k = jvalue::kind::bool_t;
            out.boolean = false;
            pos_ += 5;
            return true;
        }
        if (s_.compare(pos_, 4, "null") == 0) {
            out.k = jvalue::kind::null_t;
            pos_ += 4;
            return true;
        }
        return fail("expected a JSON value");
    }

    bool parse_object(jvalue& out)
    {
        out.k = jvalue::kind::object;
        consume('{');
        skip_ws();
        if (consume('}'))
            return true;
        while (true) {
            skip_ws();
            std::string key;
            if (!parse_string(key))
                return fail("expected an object key string");
            skip_ws();
            if (!consume(':'))
                return fail("expected ':' after object key");
            skip_ws();
            jvalue child;
            if (!parse_value(child))
                return false;
            out.members.emplace_back(std::move(key), std::move(child));
            skip_ws();
            if (consume('}'))
                return true;
            if (!consume(','))
                return fail("expected ',' or '}' in object");
        }
    }

    bool parse_array(jvalue& out)
    {
        out.k = jvalue::kind::array;
        consume('[');
        skip_ws();
        if (consume(']'))
            return true;
        while (true) {
            skip_ws();
            jvalue child;
            if (!parse_value(child))
                return false;
            out.items.push_back(std::move(child));
            skip_ws();
            if (consume(']'))
                return true;
            if (!consume(','))
                return fail("expected ',' or ']' in array");
        }
    }

    bool parse_string(std::string& out)
    {
        if (!consume('"'))
            return fail("expected '\"'");
        out.clear();
        while (pos_ < s_.size()) {
            const char c = s_[pos_++];
            if (c == '"')
                return true;
            if (c == '\\') {
                if (pos_ >= s_.size())
                    break;
                const char e = s_[pos_++];
                switch (e) {
                case '"': out += '"'; break;
                case '\\': out += '\\'; break;
                case '/': out += '/'; break;
                case 'b': out += '\b'; break;
                case 'f': out += '\f'; break;
                case 'n': out += '\n'; break;
                case 'r': out += '\r'; break;
                case 't': out += '\t'; break;
                case 'u': {
                    const std::string hex = s_.substr(pos_, 4);
                    if (hex.size() != 4 ||
                        hex.find_first_not_of("0123456789abcdefABCDEF") !=
                            std::string::npos)
                        return fail("malformed \\u escape");
                    const unsigned long code =
                        std::strtoul(hex.c_str(), nullptr, 16);
                    if (code >= 0x80)
                        return fail("unsupported non-ASCII \\u escape");
                    out += char(code);
                    pos_ += 4;
                    break;
                }
                default:
                    --pos_;
                    return fail("unsupported string escape");
                }
            } else {
                out += c;
            }
        }
        return fail("unterminated string");
    }

    bool parse_number(jvalue& out)
    {
        const std::size_t start = pos_;
        if (consume('-')) {
        }
        while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9')
            ++pos_;
        if (pos_ == start || (pos_ == start + 1 && s_[start] == '-'))
            return fail("malformed number");
        if (consume('.')) {
            const std::size_t frac = pos_;
            while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9')
                ++pos_;
            if (pos_ == frac)
                return fail("malformed number (empty fraction)");
        }
        if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-'))
                ++pos_;
            const std::size_t exp = pos_;
            while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9')
                ++pos_;
            if (pos_ == exp)
                return fail("malformed number (empty exponent)");
        }
        out.k = jvalue::kind::number;
        out.text = s_.substr(start, pos_ - start);
        return true;
    }

    const std::string& s_;
    std::size_t pos_ = 0;
    std::string err_;
    std::size_t err_pos_ = 0;
};

} // namespace

bool parse_json(const std::string& text, jvalue& out, std::string* error)
{
    return json_reader(text).parse(out, error);
}

bool as_u64(const jvalue& v, std::uint64_t& out)
{
    if (v.k != jvalue::kind::number || v.text.empty())
        return false;
    for (char c : v.text)
        if (c < '0' || c > '9')
            return false;
    out = std::strtoull(v.text.c_str(), nullptr, 10);
    return true;
}

} // namespace lnuca::exp
