/**
 * @file
 * Minimal JSON object writer for perfbench_dsp's report. Doubles are
 * printed with 17 significant digits so a value read back compares
 * exactly with the stored reference.
 */

#ifndef PERFBENCH_JSON_HH
#define PERFBENCH_JSON_HH

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>

namespace perfbench {

class JsonObject
{
  public:
    JsonObject &
    num(const std::string &key, double value)
    {
        char buf[40];
        if (std::isfinite(value))
            std::snprintf(buf, sizeof buf, "%.17g", value);
        else
            std::snprintf(buf, sizeof buf, "null");
        return raw(key, buf);
    }

    JsonObject &
    count(const std::string &key, std::uint64_t value)
    {
        return raw(key, std::to_string(value));
    }

    JsonObject &
    boolean(const std::string &key, bool value)
    {
        return raw(key, value ? "true" : "false");
    }

    JsonObject &
    str(const std::string &key, const std::string &value)
    {
        return raw(key, "\"" + value + "\"");
    }

    JsonObject &
    obj(const std::string &key, const JsonObject &value)
    {
        return raw(key, value.text());
    }

    /** Insert an already-serialized JSON value. */
    JsonObject &
    raw(const std::string &key, const std::string &json)
    {
        if (!body_.empty())
            body_ += ", ";
        body_ += "\"" + key + "\": " + json;
        return *this;
    }

    std::string text() const { return "{" + body_ + "}"; }

  private:
    std::string body_;
};

} // namespace perfbench

#endif // PERFBENCH_JSON_HH
