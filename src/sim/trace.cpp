#include "sim/trace.hpp"

namespace sf::sim {

void TraceRecorder::append(SimTime t, std::string_view category,
                           std::string_view name,
                           std::initializer_list<Attr> attrs) {
  events_.push_back({t, std::string(category), std::string(name),
                     {attrs.begin(), attrs.end()}});
}

std::vector<TraceRecorder::EventView> TraceRecorder::find(
    std::string_view category, std::string_view name) const {
  std::vector<EventView> out;
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    if (e.category == category && (name.empty() || e.name == name)) {
      out.push_back(EventView(this, i));
    }
  }
  return out;
}

void TraceRecorder::write_csv(std::ostream& os) const {
  os << "time,category,name,attrs\n";
  for (const Event& e : events_) {
    os << e.time << ',' << e.category << ',' << e.name << ',';
    for (std::size_t a = 0; a < e.attrs.size(); ++a) {
      if (a != 0) os << ';';
      os << e.attrs[a].first << '=' << e.attrs[a].second;
    }
    os << '\n';
  }
}

}  // namespace sf::sim
