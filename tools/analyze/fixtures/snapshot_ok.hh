// Companion fixture: full coverage, an annotated constant, an unowned
#pragma once
// pointer, and a stateless pure-virtual codec interface — the snapshot
// checker must stay silent.
namespace snap {
class Writer {
 public:
  void u64(unsigned long) {}
};
class Reader {
 public:
  unsigned long u64() { return 0; }
};
}  // namespace snap

class Cursor {
 public:
  void save(snap::Writer& w) const { w.u64(kept_); }
  void restore(snap::Reader& r) { kept_ = r.u64(); }

 private:
  unsigned long kept_ = 0;
  unsigned long cfg_ = 0;  // no-snapshot(construction-time config)
  const Cursor* parent_ = nullptr;  // not owned
};

class Codec {
 public:
  virtual ~Codec() = default;
  virtual void save(snap::Writer& w) const = 0;
  virtual void restore(snap::Reader& r) = 0;
};
