// D5 reverse-direction fixture (clean): counters whose names are
// composed at runtime. Each documented row in good/d5_rows.md is named
// by a literal here or in good/d5.cpp, directly or as two pieces.

#include <string>

namespace fixture {

struct Counters {
  void add(const std::string& name);
};

void drop(Counters& c, const char* reason) { c.add(std::string("net.drops.") + reason); }

void record(Counters& c, int link) {
  drop(c, "no_route");
  c.add("spine.link" + std::to_string(link) + ".packets");
}

}  // namespace fixture
