#include "core/fleet_wire.hh"

#include <bit>
#include <cstring>

namespace unico::core::wire {

namespace {

/** Nonce and kind: the head of every record. */
constexpr std::size_t kHeadBytes = 9;
/** Seed, alpha, done and the two counts of a sync/sense request. */
constexpr std::size_t kRequestBodyBytes = 28;
/** Status through history length of a state reply. */
constexpr std::size_t kStateBytes = 66;
constexpr std::size_t kAxisBytes = 8;
constexpr std::size_t kOpBytes = 8;
constexpr std::size_t kDoubleBytes = 8;

constexpr std::uint8_t kFeasible = 1;
constexpr std::uint8_t kDegraded = 2;

/** Little-endian writer into @p n bytes appended to a string. */
class Writer
{
  public:
    Writer(std::string &out, std::size_t n)
    {
        const std::size_t at = out.size();
        out.resize(at + n);
        p_ = out.data() + at;
    }

    void u8(std::uint8_t v) { put(v, 1); }
    void u32(std::uint32_t v) { put(v, 4); }
    void u64(std::uint64_t v) { put(v, 8); }
    void f64(double v) { put(std::bit_cast<std::uint64_t>(v), 8); }

    void
    bytes(const std::string &s)
    {
        if (!s.empty())
            std::memcpy(p_, s.data(), s.size());
        p_ += s.size();
    }

  private:
    void
    put(std::uint64_t v, int n)
    {
        for (int i = 0; i < n; ++i)
            *p_++ = static_cast<char>(v >> (8 * i));
    }

    char *p_ = nullptr;
};

/** Little-endian reader; callers check has() before each fixed run
 *  of fields and bound every count by left(). */
class Reader
{
  public:
    explicit Reader(std::string_view in)
        : p_(reinterpret_cast<const unsigned char *>(in.data())),
          left_(in.size())
    {}

    std::size_t left() const { return left_; }
    bool has(std::size_t n) const { return left_ >= n; }

    std::uint8_t u8() { return static_cast<std::uint8_t>(get(1)); }
    std::uint32_t u32() { return static_cast<std::uint32_t>(get(4)); }
    std::uint64_t u64() { return get(8); }
    double f64() { return std::bit_cast<double>(get(8)); }

    void
    bytes(std::size_t n, std::string &out)
    {
        out.assign(reinterpret_cast<const char *>(p_), n);
        p_ += n;
        left_ -= n;
    }

  private:
    std::uint64_t
    get(int n)
    {
        std::uint64_t v = 0;
        for (int i = n - 1; i >= 0; --i)
            v = (v << 8) | p_[i];
        p_ += n;
        left_ -= static_cast<std::size_t>(n);
        return v;
    }

    const unsigned char *p_;
    std::size_t left_;
};

/** Read the nonce and the kind byte that open every record; a kind
 *  outside [1, @p maxKind] names no record. */
WireError
head(Reader &r, std::uint64_t &nonce, std::uint8_t maxKind,
     std::uint8_t &kind)
{
    nonce = 0;
    if (!r.has(8))
        return WireError::Truncated;
    nonce = r.u64();
    if (!r.has(1))
        return WireError::Truncated;
    kind = r.u8();
    return kind >= 1 && kind <= maxKind ? WireError::None
                                        : WireError::UnknownKind;
}

WireError
end(const Reader &r)
{
    return r.left() == 0 ? WireError::None : WireError::TrailingBytes;
}

} // namespace

const char *
toString(WireError error)
{
    switch (error) {
      case WireError::None: return "none";
      case WireError::Truncated: return "truncated";
      case WireError::UnknownKind: return "unknown message kind";
      case WireError::CountOverrun: return "count overruns the payload";
      case WireError::BadField: return "bad field";
      case WireError::TrailingBytes: return "trailing bytes";
    }
    return "?";
}

void
encode(const Request &req, std::string &out)
{
    const bool body =
        req.kind == RequestKind::Sync || req.kind == RequestKind::Sense;
    const auto axes = static_cast<std::uint32_t>(req.hw.size());
    const auto ops = static_cast<std::uint32_t>(req.ops.size());
    Writer w(out, kHeadBytes + (body ? kRequestBodyBytes +
                                           kAxisBytes * axes + kOpBytes * ops
                                     : 0));
    w.u64(req.nonce);
    w.u8(static_cast<std::uint8_t>(req.kind));
    if (!body)
        return;
    w.u64(req.seed);
    w.f64(req.alpha);
    w.u32(req.done);
    w.u32(axes);
    w.u32(ops);
    for (const std::size_t v : req.hw)
        w.u64(v);
    for (const Op &op : req.ops) {
        w.u32(static_cast<std::uint32_t>(op.kind));
        w.u32(static_cast<std::uint32_t>(op.arg));
    }
}

WireError
decode(std::string_view in, Request &out)
{
    Reader r(in);
    std::uint8_t kind = 0;
    if (const WireError e = head(r, out.nonce,
                                 static_cast<std::uint8_t>(RequestKind::Bye),
                                 kind);
        e != WireError::None)
        return e;
    out.kind = static_cast<RequestKind>(kind);
    if (out.kind == RequestKind::Ping || out.kind == RequestKind::Bye)
        return end(r);

    if (!r.has(kRequestBodyBytes))
        return WireError::Truncated;
    out.seed = r.u64();
    out.alpha = r.f64();
    out.done = r.u32();
    const std::uint32_t axes = r.u32();
    const std::uint32_t ops = r.u32();
    if (axes > r.left() / kAxisBytes)
        return WireError::CountOverrun;
    out.hw.resize(axes);
    for (std::size_t &v : out.hw)
        v = r.u64();
    if (ops > r.left() / kOpBytes)
        return WireError::CountOverrun;
    out.ops.resize(ops);
    for (Op &op : out.ops) {
        const std::uint32_t opKind = r.u32();
        if (opKind > static_cast<std::uint32_t>(OpKind::Degrade))
            return WireError::BadField;
        op.kind = static_cast<OpKind>(opKind);
        op.arg = static_cast<std::int32_t>(r.u32());
    }
    if (out.done > ops)
        return WireError::BadField;
    return end(r);
}

void
encode(const Reply &reply, std::string &out)
{
    const auto chars = static_cast<std::uint32_t>(reply.message.size());
    const auto hist = static_cast<std::uint32_t>(reply.hist.size());
    std::size_t n = kHeadBytes;
    if (reply.kind == ReplyKind::Failure)
        n += 4 + chars;
    else if (reply.kind == ReplyKind::State)
        n += kStateBytes + chars + kDoubleBytes * hist;
    Writer w(out, n);
    w.u64(reply.nonce);
    w.u8(static_cast<std::uint8_t>(reply.kind));
    if (reply.kind == ReplyKind::Failure) {
        w.u32(chars);
        w.bytes(reply.message);
    }
    if (reply.kind != ReplyKind::State)
        return;
    w.u8(static_cast<std::uint8_t>(reply.status));
    w.u8(static_cast<std::uint8_t>((reply.ppa.feasible ? kFeasible : 0) |
                                   (reply.degraded ? kDegraded : 0)));
    w.u32(reply.applied);
    w.u32(static_cast<std::uint32_t>(reply.spent));
    w.f64(reply.seconds);
    w.f64(reply.ppa.latencyMs);
    w.f64(reply.ppa.powerMw);
    w.f64(reply.ppa.areaMm2);
    w.f64(reply.ppa.energyMj);
    w.f64(reply.sense);
    w.u32(chars);
    w.u32(hist);
    w.bytes(reply.message);
    for (const double v : reply.hist)
        w.f64(v);
}

WireError
decode(std::string_view in, Reply &out)
{
    Reader r(in);
    std::uint8_t kind = 0;
    if (const WireError e = head(r, out.nonce,
                                 static_cast<std::uint8_t>(ReplyKind::Failure),
                                 kind);
        e != WireError::None)
        return e;
    out.kind = static_cast<ReplyKind>(kind);

    if (out.kind == ReplyKind::Pong) {
        out.status = common::EvalStatus::Ok;
        return end(r);
    }
    if (out.kind == ReplyKind::Failure) {
        out.status = common::EvalStatus::Fatal;
        if (!r.has(4))
            return WireError::Truncated;
        const std::uint32_t chars = r.u32();
        if (chars > r.left())
            return WireError::CountOverrun;
        r.bytes(chars, out.message);
        return end(r);
    }

    if (!r.has(kStateBytes))
        return WireError::Truncated;
    const std::uint8_t status = r.u8();
    if (status > static_cast<std::uint8_t>(common::EvalStatus::Fatal))
        return WireError::BadField;
    out.status = static_cast<common::EvalStatus>(status);
    const std::uint8_t flags = r.u8();
    if ((flags & ~(kFeasible | kDegraded)) != 0)
        return WireError::BadField;
    out.ppa.feasible = (flags & kFeasible) != 0;
    out.degraded = (flags & kDegraded) != 0;
    out.applied = r.u32();
    out.spent = static_cast<std::int32_t>(r.u32());
    out.seconds = r.f64();
    out.ppa.latencyMs = r.f64();
    out.ppa.powerMw = r.f64();
    out.ppa.areaMm2 = r.f64();
    out.ppa.energyMj = r.f64();
    out.sense = r.f64();
    const std::uint32_t chars = r.u32();
    const std::uint32_t hist = r.u32();
    if (chars > r.left())
        return WireError::CountOverrun;
    r.bytes(chars, out.message);
    if (hist > r.left() / kDoubleBytes)
        return WireError::CountOverrun;
    out.hist.resize(hist);
    for (double &v : out.hist)
        v = r.f64();
    return end(r);
}

} // namespace unico::core::wire
