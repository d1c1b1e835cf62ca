/**
 * @file
 * Minimal JSON value type, parser and serializer.
 *
 * Used for the driver's checkpoint files (see core/checkpoint.hh).
 * Deliberately tiny: objects are ordered maps (deterministic dumps),
 * numbers are doubles printed with 17 significant digits so they
 * round-trip IEEE-754 exactly, and 64-bit integers that do not fit a
 * double (RNG state, seeds) are stored as hex strings by the caller.
 * No external dependency.
 */

#ifndef UNICO_COMMON_JSON_HH
#define UNICO_COMMON_JSON_HH

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace unico::common {

class JsonWriter;

/** A JSON document node. */
class Json
{
  public:
    enum class Type { Null, Bool, Number, String, Array, Object };

    Json() : type_(Type::Null) {}
    Json(bool b) : type_(Type::Bool), bool_(b) {}
    Json(double v) : type_(Type::Number), number_(v) {}
    Json(int v) : type_(Type::Number), number_(v) {}
    Json(std::int64_t v)
        : type_(Type::Number), number_(static_cast<double>(v))
    {}
    Json(std::size_t v)
        : type_(Type::Number), number_(static_cast<double>(v))
    {}
    Json(const char *s) : type_(Type::String), string_(s) {}
    Json(std::string s) : type_(Type::String), string_(std::move(s)) {}

    /** An empty array / object literal. */
    static Json array();
    static Json object();

    Type type() const { return type_; }
    bool isNull() const { return type_ == Type::Null; }
    bool isBool() const { return type_ == Type::Bool; }
    bool isNumber() const { return type_ == Type::Number; }
    bool isString() const { return type_ == Type::String; }
    bool isArray() const { return type_ == Type::Array; }
    bool isObject() const { return type_ == Type::Object; }

    /** Typed accessors; throw std::runtime_error on type mismatch. */
    bool asBool() const;
    double asDouble() const;
    std::int64_t asInt() const;
    const std::string &asString() const;

    /** Array helpers. */
    std::size_t size() const;
    const Json &at(std::size_t i) const;
    void push(Json v);

    /** Object helpers. */
    bool has(const std::string &key) const;
    /** Object member; throws when absent (const) or inserts (non-const). */
    const Json &at(const std::string &key) const;
    Json &operator[](const std::string &key);
    const std::map<std::string, Json> &members() const;

    /** Serialize; @p indent > 0 pretty-prints. */
    std::string dump(int indent = 0) const;

    /** Parse a document; throws std::runtime_error on malformed input. */
    static Json parse(const std::string &text);

  private:
    void writeTo(JsonWriter &w) const;

    Type type_;
    bool bool_ = false;
    double number_ = 0.0;
    std::string string_;
    std::vector<Json> array_;
    std::map<std::string, Json> object_;
};

/**
 * The formatted elements of a JSON array that only grows, for
 * JsonWriter::cachedArray(): each element is formatted once, by the
 * first call that sees it, and later calls copy its text.
 */
class JsonArrayCache
{
  public:
    /** Elements formatted so far. */
    std::size_t size() const { return size_; }

    /** Forget every element; the next write formats them all. */
    void
    clear()
    {
        text_.clear();
        size_ = 0;
    }

  private:
    friend class JsonWriter;

    std::string text_;       ///< the elements with their separators
    std::size_t size_ = 0;
    int indent_ = -1;        ///< the layout text_ was formatted for
    std::size_t depth_ = 0;
};

/**
 * Streaming serializer: appends to a string exactly the text
 * Json::dump() prints for the document its calls describe, without
 * building the document. Json::dump() is itself a walk over a
 * JsonWriter, so the two layouts cannot drift. Calls must nest like
 * the document: key() before each member value of an object, and every
 * begin matched by its end.
 */
class JsonWriter
{
  public:
    /** Appends to @p out. @p indent as in Json::dump(); the first
     *  value sits at nesting level @p depth. */
    explicit JsonWriter(std::string &out, int indent = 0,
                        std::size_t depth = 0)
        : out_(out), indent_(indent), base_(depth)
    {}

    JsonWriter &beginArray();
    JsonWriter &endArray();
    JsonWriter &beginObject();
    JsonWriter &endObject();

    /** The key of the open object's next member. */
    JsonWriter &key(std::string_view k);

    JsonWriter &null();
    JsonWriter &boolean(bool b);
    /** Non-finite values print as Json::dump() prints them. */
    JsonWriter &number(double v);
    JsonWriter &string(std::string_view s);

    /**
     * An array of @p size elements whose first cache.size() are the
     * ones @p cache already holds: element(writer, i) writes element i
     * into @p writer for each i from cache.size() on, and the rest is
     * copied. Elements must never change once written; when the array
     * shrank, or sits at another nesting level than when @p cache was
     * filled, the cache is cleared and every element is written anew.
     */
    template <typename Element>
    JsonWriter &cachedArray(JsonArrayCache &cache, std::size_t size,
                            Element &&element);

  private:
    /** Nesting level of the next value. */
    std::size_t level() const { return base_ + open_.size(); }
    void beforeValue();
    void separate();
    void newline(std::size_t level);
    void close(char bracket);

    std::string &out_;
    int indent_;
    std::size_t base_;
    /** Elements or members written so far, per open container. */
    std::vector<std::size_t> open_;
    bool afterKey_ = false;
};

template <typename Element>
JsonWriter &
JsonWriter::cachedArray(JsonArrayCache &cache, std::size_t size,
                        Element &&element)
{
    const std::size_t depth = level();
    if (size < cache.size_ || cache.indent_ != indent_ ||
        cache.depth_ != depth) {
        cache.clear();
        cache.indent_ = indent_;
        cache.depth_ = depth;
    }
    if (cache.size_ < size) {
        // A writer inside this array after its cached elements.
        JsonWriter tail(cache.text_, indent_, depth);
        tail.open_.push_back(cache.size_);
        for (std::size_t i = cache.size_; i < size; ++i)
            element(tail, i);
        cache.size_ = size;
    }
    beforeValue();
    out_ += '[';
    out_ += cache.text_;
    if (size > 0)
        newline(depth);
    out_ += ']';
    return *this;
}

/** Hex encoding for 64-bit values that do not fit a JSON double. */
std::string hexU64(std::uint64_t v);
std::uint64_t parseHexU64(const std::string &s);

} // namespace unico::common

#endif // UNICO_COMMON_JSON_HH
