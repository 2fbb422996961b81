// Companion fixture: full coverage, an annotated constant, an unowned
#pragma once
// pointer, a stateless pure-virtual codec interface, and a complete
// one-body io() codec — the snapshot checker must stay silent.
namespace snap {
class Writer {
 public:
  void u64(unsigned long) {}
};
class Reader {
 public:
  unsigned long u64() { return 0; }
};
template <class Ar>
void u64(Ar& ar, unsigned long& v);
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

class Ledger {
 public:
  void save(snap::Writer& w) const { const_cast<Ledger*>(this)->io(w); }
  void restore(snap::Reader& r) { io(r); }

 private:
  template <class Ar>
  void io(Ar& ar) {
    snap::u64(ar, entries_);
    snap::u64(ar, total_);
  }

  unsigned long entries_ = 0;
  unsigned long total_ = 0;
};
