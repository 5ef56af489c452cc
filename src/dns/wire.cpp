#include "dns/wire.h"

#include <array>
#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "dns/errors.h"

namespace dohperf::dns {
namespace {

// ---------------------------------------------------------------- writer

/// Sink that appends the octets to a caller-owned buffer.
class ByteSink {
 public:
  explicit ByteSink(std::vector<std::uint8_t>& out) : out_(out) {
    out_.clear();
  }
  void u8(std::uint8_t v) { out_.push_back(v); }
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    out_.insert(out_.end(), p, p + n);
  }
  [[nodiscard]] std::size_t size() const { return out_.size(); }
  void patch_u16(std::size_t offset, std::uint16_t v) {
    out_[offset] = static_cast<std::uint8_t>(v >> 8);
    out_[offset + 1] = static_cast<std::uint8_t>(v);
  }

 private:
  std::vector<std::uint8_t>& out_;
};

/// Sink that only counts the octets: wire_size() runs the encoder's own
/// walk through it, so the size and the encoding cannot disagree.
class CountSink {
 public:
  void u8(std::uint8_t) { ++size_; }
  void bytes(const void*, std::size_t n) { size_ += n; }
  [[nodiscard]] std::size_t size() const { return size_; }
  void patch_u16(std::size_t, std::uint16_t) {}

 private:
  std::size_t size_ = 0;
};

/// Compression targets: every name suffix written so far at an offset a
/// pointer can address, as a view into the message being written (a
/// label-boundary tail of some DomainName's wire buffer). Lookups are
/// first-writer-wins; a message rarely holds more than a few dozen
/// suffixes, so the first kInline live on the stack.
class SuffixTable {
 public:
  /// Offset of an earlier suffix equal (ASCII case-folded) to `tail`.
  [[nodiscard]] std::optional<std::uint16_t> find(
      std::string_view tail) const {
    for (std::size_t i = 0; i < size_; ++i) {
      const Entry& e = i < kInline ? inline_[i] : spill_[i - kInline];
      if (e.size == tail.size() &&
          wire_tail_equal(std::string_view(e.data, e.size), tail)) {
        return e.offset;
      }
    }
    return std::nullopt;
  }

  void add(std::string_view tail, std::uint16_t offset) {
    const Entry e{tail.data(), static_cast<std::uint16_t>(tail.size()),
                  offset};
    if (size_ < kInline) {
      inline_[size_] = e;
    } else {
      spill_.push_back(e);
    }
    ++size_;
  }

 private:
  struct Entry {
    const char* data;
    std::uint16_t size;
    std::uint16_t offset;
  };
  static constexpr std::size_t kInline = 32;

  std::array<Entry, kInline> inline_;
  std::vector<Entry> spill_;
  std::size_t size_ = 0;
};

/// The encoder, generic over where the octets go (ByteSink or CountSink).
template <typename Sink>
class Writer {
 public:
  explicit Writer(Sink sink) : sink_(std::move(sink)) {}

  void u8(std::uint8_t v) { sink_.u8(v); }
  void u16(std::uint16_t v) {
    sink_.u8(static_cast<std::uint8_t>(v >> 8));
    sink_.u8(static_cast<std::uint8_t>(v));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v >> 16));
    u16(static_cast<std::uint16_t>(v));
  }
  void bytes(std::span<const std::uint8_t> b) {
    sink_.bytes(b.data(), b.size());
  }
  void bytes(std::string_view b) { sink_.bytes(b.data(), b.size()); }

  [[nodiscard]] std::size_t size() const { return sink_.size(); }

  /// Patches a previously-written big-endian u16 at `offset`.
  void patch_u16(std::size_t offset, std::uint16_t v) {
    sink_.patch_u16(offset, v);
  }

  /// Writes `name` using suffix compression against earlier occurrences.
  void name(const DomainName& n) {
    const std::string_view wire = n.wire();
    for (std::size_t pos = 0; pos < wire.size();) {
      const std::string_view suffix = wire.substr(pos);
      if (const auto offset = suffixes_.find(suffix)) {
        u16(static_cast<std::uint16_t>(0xC000 | *offset));
        return;
      }
      // Pointers can only address the first 0x3FFF octets.
      if (size() <= 0x3FFF) {
        suffixes_.add(suffix, static_cast<std::uint16_t>(size()));
      }
      const std::size_t len = 1 + static_cast<unsigned char>(wire[pos]);
      bytes(wire.substr(pos, len));
      pos += len;
    }
    u8(0);  // root
  }

 private:
  Sink sink_;
  SuffixTable suffixes_;
};

template <typename Sink>
void write_rdata(Writer<Sink>& w, const RData& rdata) {
  // RDLENGTH is patched after the fact because compression makes name
  // lengths position-dependent.
  const std::size_t len_at = w.size();
  w.u16(0);
  const std::size_t start = w.size();

  struct Visitor {
    Writer<Sink>& w;
    void operator()(const ARecord& a) const { w.u32(a.address); }
    void operator()(const AaaaRecord& a) const { w.bytes(a.address); }
    void operator()(const NsRecord& ns) const { w.name(ns.nameserver); }
    void operator()(const CnameRecord& c) const { w.name(c.target); }
    void operator()(const SoaRecord& s) const {
      w.name(s.mname);
      w.name(s.rname);
      w.u32(s.serial);
      w.u32(s.refresh);
      w.u32(s.retry);
      w.u32(s.expire);
      w.u32(s.minimum);
    }
    void operator()(const OptRecord& opt) const {
      for (const EdnsOption& option : opt.options) {
        w.u16(option.code);
        w.u16(static_cast<std::uint16_t>(option.data.size()));
        w.bytes(option.data);
      }
    }
    void operator()(const TxtRecord& t) const {
      // Single character-string; text longer than 255 is split.
      std::size_t pos = 0;
      while (pos < t.text.size() || pos == 0) {
        const std::size_t chunk = std::min<std::size_t>(255, t.text.size() - pos);
        w.u8(static_cast<std::uint8_t>(chunk));
        w.bytes(std::string_view(t.text).substr(pos, chunk));
        pos += chunk;
        if (pos >= t.text.size()) break;
      }
    }
  };
  std::visit(Visitor{w}, rdata);

  w.patch_u16(len_at, static_cast<std::uint16_t>(w.size() - start));
}

template <typename Sink>
void write_record(Writer<Sink>& w, const ResourceRecord& rr) {
  if (rr.type() == RecordType::kOpt) {
    // RFC 6891: OPT lives at the root name; the class field carries the
    // UDP payload size, the TTL the extended flags.
    const auto& opt = std::get<OptRecord>(rr.rdata);
    w.name(DomainName{});
    w.u16(static_cast<std::uint16_t>(RecordType::kOpt));
    w.u16(opt.udp_payload);
    w.u32(opt.extended_flags);
    write_rdata(w, rr.rdata);
    return;
  }
  w.name(rr.name);
  w.u16(static_cast<std::uint16_t>(rr.type()));
  w.u16(static_cast<std::uint16_t>(rr.rclass));
  w.u32(rr.ttl);
  write_rdata(w, rr.rdata);
}

std::uint16_t pack_flags(const Header& h) {
  std::uint16_t f = 0;
  if (h.qr) f |= 0x8000;
  f |= static_cast<std::uint16_t>((static_cast<unsigned>(h.opcode) & 0xF) << 11);
  if (h.aa) f |= 0x0400;
  if (h.tc) f |= 0x0200;
  if (h.rd) f |= 0x0100;
  if (h.ra) f |= 0x0080;
  f |= static_cast<std::uint16_t>(static_cast<unsigned>(h.rcode) & 0xF);
  return f;
}

template <typename Sink>
void write_message(Writer<Sink>& w, const Message& msg) {
  w.u16(msg.header.id);
  w.u16(pack_flags(msg.header));
  w.u16(static_cast<std::uint16_t>(msg.questions.size()));
  w.u16(static_cast<std::uint16_t>(msg.answers.size()));
  w.u16(static_cast<std::uint16_t>(msg.authorities.size()));
  w.u16(static_cast<std::uint16_t>(msg.additionals.size()));

  for (const Question& q : msg.questions) {
    w.name(q.name);
    w.u16(static_cast<std::uint16_t>(q.type));
    w.u16(static_cast<std::uint16_t>(q.rclass));
  }
  for (const auto& rr : msg.answers) write_record(w, rr);
  for (const auto& rr : msg.authorities) write_record(w, rr);
  for (const auto& rr : msg.additionals) write_record(w, rr);
}

// ---------------------------------------------------------------- reader

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> wire) : wire_(wire) {}

  std::uint8_t u8() {
    need(1);
    return wire_[pos_++];
  }
  std::uint16_t u16() {
    need(2);
    const std::uint16_t v = static_cast<std::uint16_t>(
        (static_cast<std::uint16_t>(wire_[pos_]) << 8) | wire_[pos_ + 1]);
    pos_ += 2;
    return v;
  }
  std::uint32_t u32() {
    const std::uint32_t hi = u16();
    return (hi << 16) | u16();
  }
  std::span<const std::uint8_t> bytes(std::size_t n) {
    need(n);
    auto s = wire_.subspan(pos_, n);
    pos_ += n;
    return s;
  }

  [[nodiscard]] std::size_t pos() const { return pos_; }
  void seek(std::size_t p) {
    if (p > wire_.size()) throw ParseError("seek out of range");
    pos_ = p;
  }

  /// Reads a possibly-compressed name starting at the cursor.
  DomainName name() {
    std::string labels;  // length-prefixed, as DomainName stores them
    std::size_t count = 0;
    std::size_t jumps = 0;
    std::size_t return_to = 0;
    bool jumped = false;

    for (;;) {
      const std::uint8_t len = u8();
      if (len == 0) break;
      if ((len & 0xC0) == 0xC0) {
        const std::uint8_t lo = u8();
        const std::size_t target =
            (static_cast<std::size_t>(len & 0x3F) << 8) | lo;
        if (!jumped) {
          return_to = pos_;
          jumped = true;
        }
        // Pointers must point strictly backwards; combined with a jump
        // budget this makes loops impossible.
        if (target >= pos_ - 2) throw ParseError("forward compression pointer");
        if (++jumps > 64) throw ParseError("compression pointer chain too long");
        seek(target);
        continue;
      }
      if ((len & 0xC0) != 0) throw ParseError("reserved label type");
      const auto raw = bytes(len);
      labels.push_back(static_cast<char>(len));
      labels.append(reinterpret_cast<const char*>(raw.data()), raw.size());
      if (++count > 128) throw ParseError("too many labels");
    }
    if (jumped) seek(return_to);
    try {
      return DomainName::from_wire(std::move(labels));
    } catch (const NameError& e) {
      throw ParseError(e.what());
    }
  }

 private:
  void need(std::size_t n) const {
    if (pos_ + n > wire_.size()) throw ParseError("truncated message");
  }

  std::span<const std::uint8_t> wire_;
  std::size_t pos_ = 0;
};

RData read_rdata(Reader& r, RecordType type, std::size_t rdlength) {
  const std::size_t end = r.pos() + rdlength;
  RData rdata;
  switch (type) {
    case RecordType::kA: {
      if (rdlength != 4) throw ParseError("bad A rdlength");
      rdata = ARecord{r.u32()};
      break;
    }
    case RecordType::kAaaa: {
      if (rdlength != 16) throw ParseError("bad AAAA rdlength");
      AaaaRecord aaaa;
      const auto raw = r.bytes(16);
      std::copy(raw.begin(), raw.end(), aaaa.address.begin());
      rdata = aaaa;
      break;
    }
    case RecordType::kNs:
      rdata = NsRecord{r.name()};
      break;
    case RecordType::kCname:
      rdata = CnameRecord{r.name()};
      break;
    case RecordType::kSoa: {
      SoaRecord soa;
      soa.mname = r.name();
      soa.rname = r.name();
      soa.serial = r.u32();
      soa.refresh = r.u32();
      soa.retry = r.u32();
      soa.expire = r.u32();
      soa.minimum = r.u32();
      rdata = soa;
      break;
    }
    case RecordType::kOpt: {
      OptRecord opt;
      while (r.pos() < end) {
        EdnsOption option;
        option.code = r.u16();
        const std::uint16_t len = r.u16();
        if (r.pos() + len > end) throw ParseError("EDNS option overflow");
        const auto raw = r.bytes(len);
        option.data.assign(raw.begin(), raw.end());
        opt.options.push_back(std::move(option));
      }
      rdata = std::move(opt);
      break;
    }
    case RecordType::kTxt: {
      TxtRecord txt;
      while (r.pos() < end) {
        const std::uint8_t len = r.u8();
        const auto raw = r.bytes(len);
        txt.text.append(reinterpret_cast<const char*>(raw.data()), raw.size());
      }
      rdata = txt;
      break;
    }
    default:
      throw ParseError("unsupported record type " +
                       std::to_string(static_cast<unsigned>(type)));
  }
  if (r.pos() != end) throw ParseError("rdlength mismatch");
  return rdata;
}

ResourceRecord read_record(Reader& r) {
  ResourceRecord rr;
  rr.name = r.name();
  const auto type = static_cast<RecordType>(r.u16());
  if (type == RecordType::kOpt) {
    if (!rr.name.empty()) throw ParseError("OPT must live at the root");
    const std::uint16_t udp_payload = r.u16();  // class field
    const std::uint32_t flags = r.u32();        // ttl field
    const std::uint16_t rdlength = r.u16();
    rr.rdata = read_rdata(r, type, rdlength);
    auto& opt = std::get<OptRecord>(rr.rdata);
    opt.udp_payload = udp_payload;
    opt.extended_flags = flags;
    return rr;
  }
  const auto rclass = static_cast<RecordClass>(r.u16());
  if (rclass != RecordClass::kIn) throw ParseError("unsupported class");
  rr.rclass = rclass;
  rr.ttl = r.u32();
  const std::uint16_t rdlength = r.u16();
  rr.rdata = read_rdata(r, type, rdlength);
  return rr;
}

Header unpack_header(std::uint16_t id, std::uint16_t flags) {
  Header h;
  h.id = id;
  h.qr = (flags & 0x8000) != 0;
  h.opcode = static_cast<Opcode>((flags >> 11) & 0xF);
  h.aa = (flags & 0x0400) != 0;
  h.tc = (flags & 0x0200) != 0;
  h.rd = (flags & 0x0100) != 0;
  h.ra = (flags & 0x0080) != 0;
  h.rcode = static_cast<Rcode>(flags & 0xF);
  return h;
}

}  // namespace

std::vector<std::uint8_t> encode(const Message& msg) {
  std::vector<std::uint8_t> out;
  encode_into(msg, out);
  return out;
}

void encode_into(const Message& msg, std::vector<std::uint8_t>& out) {
  Writer w{ByteSink(out)};
  write_message(w, msg);
}

Message decode(std::span<const std::uint8_t> wire) {
  Reader r(wire);
  Message msg;
  const std::uint16_t id = r.u16();
  const std::uint16_t flags = r.u16();
  msg.header = unpack_header(id, flags);
  const std::uint16_t qd = r.u16();
  const std::uint16_t an = r.u16();
  const std::uint16_t ns = r.u16();
  const std::uint16_t ar = r.u16();

  for (std::uint16_t i = 0; i < qd; ++i) {
    Question q;
    q.name = r.name();
    q.type = static_cast<RecordType>(r.u16());
    const auto rclass = static_cast<RecordClass>(r.u16());
    if (rclass != RecordClass::kIn) throw ParseError("unsupported class");
    q.rclass = rclass;
    msg.questions.push_back(std::move(q));
  }
  for (std::uint16_t i = 0; i < an; ++i) msg.answers.push_back(read_record(r));
  for (std::uint16_t i = 0; i < ns; ++i) {
    msg.authorities.push_back(read_record(r));
  }
  for (std::uint16_t i = 0; i < ar; ++i) {
    msg.additionals.push_back(read_record(r));
  }
  return msg;
}

std::size_t wire_size(const Message& msg) {
  Writer w{CountSink()};
  write_message(w, msg);
  return w.size();
}

}  // namespace dohperf::dns
