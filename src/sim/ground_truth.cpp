#include "src/sim/ground_truth.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <set>
#include <sstream>

#include "src/common/error.hpp"

namespace ebbiot {

std::size_t GroundTruth::distinctTracks() const {
  std::set<std::uint32_t> ids;
  for (const GtFrame& f : frames) {
    for (const GtBox& b : f.boxes) {
      ids.insert(b.trackId);
    }
  }
  return ids.size();
}

std::size_t GroundTruth::totalBoxes() const {
  std::size_t n = 0;
  for (const GtFrame& f : frames) {
    n += f.boxes.size();
  }
  return n;
}

GtFrame annotateScene(const SceneProvider& scene, TimeUs t,
                      const GtOptions& options) {
  GtFrame frame;
  frame.t = t;
  for (const ObjectState& o : scene.objectsAt(t)) {
    const BBox clipped = clampToFrame(o.box, scene.width(), scene.height());
    if (clipped.empty()) {
      continue;
    }
    const float visibleFraction =
        o.box.area() > 0.0F ? clipped.area() / o.box.area() : 0.0F;
    if (visibleFraction < options.minVisibleFraction) {
      continue;
    }
    if (clipped.w < options.minBoxSide || clipped.h < options.minBoxSide) {
      continue;
    }
    frame.boxes.push_back(GtBox{o.id, o.kind, clipped});
  }
  return frame;
}

void writeGroundTruthCsv(std::ostream& os, const GroundTruth& gt) {
  os << "t_us,track_id,class,x,y,w,h\n";
  for (const GtFrame& f : gt.frames) {
    for (const GtBox& b : f.boxes) {
      os << f.t << ',' << b.trackId << ',' << objectClassName(b.kind) << ','
         << b.box.x << ',' << b.box.y << ',' << b.box.w << ',' << b.box.h
         << '\n';
    }
  }
  if (!os) {
    throw IoError("failed writing ground truth CSV");
  }
}

namespace {

ObjectClass classFromName(const std::string& name) {
  for (int i = 0; i < kObjectClassCount; ++i) {
    const auto c = static_cast<ObjectClass>(i);
    if (objectClassName(c) == name) {
      return c;
    }
  }
  throw IoError("unknown object class in ground truth CSV: " + name);
}

}  // namespace

GroundTruth readGroundTruthCsv(std::istream& is) {
  std::string line;
  if (!std::getline(is, line) || line != "t_us,track_id,class,x,y,w,h") {
    throw IoError("unexpected ground truth CSV header");
  }
  GroundTruth gt;
  GtFrame* current = nullptr;
  std::size_t lineNo = 1;
  while (std::getline(is, line)) {
    ++lineNo;
    if (line.empty()) {
      continue;
    }
    std::istringstream ls(line);
    std::string field;
    std::vector<std::string> fields;
    while (std::getline(ls, field, ',')) {
      fields.push_back(field);
    }
    if (fields.size() != 7) {
      throw IoError("malformed ground truth CSV at line " +
                    std::to_string(lineNo));
    }
    try {
      const TimeUs t = std::stoll(fields[0]);
      GtBox box;
      box.trackId = static_cast<std::uint32_t>(std::stoul(fields[1]));
      box.kind = classFromName(fields[2]);
      box.box = BBox{std::stof(fields[3]), std::stof(fields[4]),
                     std::stof(fields[5]), std::stof(fields[6])};
      if (current == nullptr || current->t != t) {
        gt.frames.push_back(GtFrame{t, {}});
        current = &gt.frames.back();
      }
      current->boxes.push_back(box);
    } catch (const std::logic_error&) {
      throw IoError("unparseable number in ground truth CSV at line " +
                    std::to_string(lineNo));
    }
  }
  return gt;
}

}  // namespace ebbiot
