// deeplint fixture: companion header of positives.cc. The unordered-iter
// rule must see this declaration when it lints LiveSet::Dump() there.
#include <unordered_set>

struct LiveSet {
  std::unordered_set<int> live_ids_;
  void Dump();
};
