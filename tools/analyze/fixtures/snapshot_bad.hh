// Sabotage fixture: the snapshot checker must flag dropped_ (never
#pragma once
// saved), half_ (saved but never restored), lost_ (an implementation
// of a pure-virtual codec interface that skips it) and skipped_ (left
// out of a one-body io() codec). WILL_FAIL ctest.
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
  void save(snap::Writer& w) const {
    w.u64(kept_);
    w.u64(half_);
  }
  void restore(snap::Reader& r) { kept_ = r.u64(); }

 private:
  unsigned long kept_ = 0;
  unsigned long half_ = 0;
  unsigned long dropped_ = 0;
};

// The pure-virtual exemption covers the interface only: an
// implementation in the same file that drops a member still fires.
class Codec {
 public:
  virtual ~Codec() = default;
  virtual void save(snap::Writer& w) const = 0;
  virtual void restore(snap::Reader& r) = 0;
};

class Counter : public Codec {
 public:
  void save(snap::Writer& w) const override { w.u64(count_); }
  void restore(snap::Reader& r) override { count_ = r.u64(); }

 private:
  unsigned long count_ = 0;
  unsigned long lost_ = 0;
};

// The io() form: save() and restore() both run one body, and every
// member must be named in it.
class Ledger {
 public:
  void save(snap::Writer& w) const { const_cast<Ledger*>(this)->io(w); }
  void restore(snap::Reader& r) { io(r); }

 private:
  template <class Ar>
  void io(Ar& ar) {
    snap::u64(ar, entries_);
  }

  unsigned long entries_ = 0;
  unsigned long skipped_ = 0;
};
